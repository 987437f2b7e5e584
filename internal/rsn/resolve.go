package rsn

import (
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
// up to limit of its pure-path predecessors, in PurePredecessors order,
// skipping skip and every predecessor compatible rejects (re-connecting
// to one keeps the segment deep in the network), then the scan-in port,
// which is always valid and provably terminating. With limit 0 the
// predecessors are not walked.
func (nw *Network) AppendCandidates(dst []Candidate, reg int, skip Ref, limit int, compatible func(pred int) bool) []Candidate {
	pin := Sink{Elem: Reg(reg)}
	if limit > 0 {
		taken := 0
		for _, pr := range nw.PurePredecessors(reg) {
			if Reg(pr) == skip || !compatible(pr) {
				continue
			}
			dst = append(dst, Candidate{pin, Reg(pr)})
			if taken++; taken >= limit {
				break
			}
		}
	}
	return append(dst, Candidate{pin, ScanIn})
}

// ApplyBest runs one resolution round over cands and applies the
// winner to nw. Each candidate is applied in place with Rewire, scored
// by trial and undone; trial reports false to reject it. With workers
// > 1 the trials fan out over per-worker clones of nw into
// candidate-order slots, so the winner does not depend on scheduling as
// long as trial's score depends only on the wiring. The winner is the
// best accepted score under the strict order better, the earliest
// candidate among equals.
//
// Structural validation is deferred to winner selection: candidates
// rarely fail it, so scoring first and validating only the prospective
// winner trades a graph traversal per candidate for one per change. A
// winner that fails Validate is undone and discarded and the scan
// repeated, which selects exactly the best valid candidate. ApplyBest
// returns the applied change with the winner's score, or false if no
// candidate is accepted and valid, leaving nw unchanged.
func ApplyBest[S any](nw *Network, cands []Candidate, workers int, trial func(net *Network, rw Rewiring) (S, bool), better func(s, t S) bool) (Change, S, bool) {
	scores := make([]S, len(cands))
	ok := make([]bool, len(cands))
	try := func(net *Network, i int) {
		rw, err := net.Rewire(cands[i].Pin, cands[i].NewSrc)
		if err != nil {
			return
		}
		scores[i], ok[i] = trial(net, rw)
		net.Undo(rw)
	}
	if workers = min(workers, len(cands)); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				net := nw.Clone()
				for i := int(next.Add(1)) - 1; i < len(cands); i = int(next.Add(1)) - 1 {
					try(net, i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range cands {
			try(nw, i)
		}
	}
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
		if rw, err := nw.Rewire(c.Pin, c.NewSrc); err == nil {
			if nw.Validate() == nil {
				return Change{Cut: c.Pin, OldSrc: oldSrc, NewSrc: c.NewSrc, NewMuxes: len(nw.Muxes) - rw.Muxes}, scores[best], true
			}
			nw.Undo(rw)
		}
		ok[best] = false
	}
}
