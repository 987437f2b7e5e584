package rsn

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Candidate is one trial of the resolution rule (Section III-D): cut
// input pin Pin and re-feed it from NewSrc.
type Candidate struct {
	Pin    Sink
	NewSrc Ref
}

// AppendCandidates appends the candidates that re-feed register reg:
// up to limit (at least one) of preds, its pure-path predecessors in
// PurePredecessors order, skipping skip and every predecessor
// compatible rejects (re-connecting to one keeps the segment deep in
// the network), then the scan-in port, which is always valid.
func AppendCandidates(dst []Candidate, reg int, preds []int, skip Ref, limit int, compatible func(pred int) bool) []Candidate {
	pin := Sink{Elem: Reg(reg)}
	taken := 0
	for _, pr := range preds {
		if Reg(pr) == skip || !compatible(pr) {
			continue
		}
		dst = append(dst, Candidate{pin, Reg(pr)})
		if taken++; taken >= limit {
			break
		}
	}
	return append(dst, Candidate{pin, ScanIn})
}

// Rounds is the state successive resolution rounds on one network
// share: the workers' wiring clones, made once and kept in step with
// Net by replaying each applied change, and whether Net is settled, so
// that winners are validated locally. Net must change only through
// ApplyRound.
type Rounds struct {
	Net *Network
	// Workers is the number of goroutines the trials fan out over.
	Workers int
	// Fed, when set, returns the number of register and mux input pins
	// src feeds at round start, a mux listing src twice counting twice;
	// trials then decide "drives nothing" without scanning the network.
	Fed func(src Ref) int

	clones         []*Network
	checked, valid bool
}

// Clones returns the worker clones made so far; between rounds each
// has Net's wiring.
func (r *Rounds) Clones() []*Network { return r.clones }

// ApplyBest runs one resolution round over cands, which may come from
// anywhere, on nw: clones for this round only, the network scanned for
// consumers and every prospective winner validated in full.
func ApplyBest[S any](nw *Network, cands []Candidate, workers int, trial func(net *Network, rw Rewiring) (S, bool), better func(s, t S) bool) (Change, S, bool) {
	return ApplyRound(&Rounds{Net: nw, Workers: workers, checked: true}, cands, trial, better)
}

// ApplyRound runs one resolution round over cands, which come from
// AppendCandidates, and applies the winner to r.Net. Each candidate is
// applied in place with Rewire, scored by trial and undone; trial
// reports false to reject it. With more than one worker the trials fan
// out over r.Net and wiring clones (which share the registers'
// Capture/Update links and the modules, so trial must not write those)
// into candidate-order slots, so the winner does not depend on
// scheduling as long as trial's score depends only on the wiring. The
// winner is the best accepted score under the strict order better, the
// earliest candidate among equals.
//
// Only the prospective winner is validated (keepsValid; Net itself in
// full on the first round); one that fails is undone and discarded and
// the scan repeated, which selects exactly the best valid candidate.
// The applied change is replayed on every clone. ApplyRound returns it
// with the winner's score, or false if no candidate is accepted and
// valid, leaving Net unchanged.
func ApplyRound[S any](r *Rounds, cands []Candidate, trial func(net *Network, rw Rewiring) (S, bool), better func(s, t S) bool) (Change, S, bool) {
	nw := r.Net
	if !r.checked {
		r.checked, r.valid = true, nw.settled()
	}
	scores := make([]S, len(cands))
	ok := make([]bool, len(cands))
	try := func(net *Network, i int) {
		rw, err := net.rewire(cands[i].Pin, cands[i].NewSrc, r.Fed)
		if err != nil {
			return
		}
		scores[i], ok[i] = trial(net, rw)
		net.Undo(rw)
	}
	var next atomic.Int64
	work := func(net *Network) {
		for i := int(next.Add(1)) - 1; i < len(cands); i = int(next.Add(1)) - 1 {
			try(net, i)
		}
	}
	// The calling goroutine works on nw; the others on the clones.
	var wg sync.WaitGroup
	for k := range min(r.Workers, len(cands)) - 1 {
		if k == len(r.clones) {
			r.clones = append(r.clones, nw.cloneWiring())
		}
		cp := r.clones[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(cp)
		}()
	}
	work(nw)
	wg.Wait()
	for {
		best := -1
		for i := range cands {
			if ok[i] && (best < 0 || better(scores[i], scores[best])) {
				best = i
			}
		}
		if best < 0 {
			var none S
			return Change{}, none, false
		}
		c := cands[best]
		oldSrc := nw.SinkSource(c.Pin)
		if rw, err := nw.rewire(c.Pin, c.NewSrc, r.Fed); err == nil {
			if r.keepsValid(c) {
				r.replay(rw)
				return Change{Cut: c.Pin, OldSrc: oldSrc, NewSrc: c.NewSrc, NewMuxes: len(nw.Muxes) - rw.Muxes}, scores[best], true
			}
			nw.Undo(rw)
		}
		ok[best] = false
	}
}

// keepsValid reports whether Net is valid after candidate c was
// applied. When Net was settled before, that holds when the new source
// is in range and the new edge closes no cycle (DESIGN.md, "Resolve
// loop at change cost", gives the argument); an AppendCandidates
// source, scan-in or a pure-path predecessor of the pin's register,
// closes none. The change keeps Net settled.
func (r *Rounds) keepsValid(c Candidate) bool {
	src := c.NewSrc
	if r.valid && (src == ScanIn || src.Kind == KRegister && src.ID >= 0 && int(src.ID) < len(r.Net.Registers)) {
		return true
	}
	return r.Net.Validate() == nil
}

// settled reports whether nw is valid and every mux, like every
// register, reaches scan-out: then a source that keeps a consumer
// after a cut keeps its path to scan-out.
func (nw *Network) settled() bool {
	s := searchPool.Get().(*searchScratch)
	defer searchPool.Put(s)
	ok := nw.Validate() == nil && nw.searchInputs(s, false) == ""
	for m := range nw.Muxes {
		ok = ok && s.state[nw.RefIndex(Mx(m))]&toScanOut != 0
	}
	return ok
}

// replay applies rw, the change just applied to Net, to every clone:
// the inserted muxes, then the rewired pins' new sources.
func (r *Rounds) replay(rw Rewiring) {
	nw := r.Net
	for _, cp := range r.clones {
		for _, m := range nw.Muxes[rw.Muxes:] {
			cp.Muxes = append(cp.Muxes, Mux{Name: m.Name, Inputs: slices.Clone(m.Inputs)})
		}
		for _, p := range rw.Pins {
			cp.SetSink(p, nw.SinkSource(p))
		}
	}
}
