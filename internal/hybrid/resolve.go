package hybrid

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rsn"
)

// Result summarizes a hybrid resolution run.
type Result struct {
	Changes []rsn.Change
	// ViolationsBefore is the number of violating nodes before any
	// change.
	ViolationsBefore int
}

// hop is one reconfigurable wiring edge on a violating flow: the last
// scan flip-flop of register From feeds the first of register To.
type hop struct {
	From, To int
}

// ErrInsecureLogic reports a violating flow that uses no reconfigurable
// wiring: it cannot be resolved by transforming the RSN.
type ErrInsecureLogic struct {
	Src, Dst int
	Name     string
}

func (e *ErrInsecureLogic) Error() string {
	return fmt.Sprintf("hybrid: flow %s is carried by circuit logic and fixed scan structure alone; resolving it requires a circuit redesign", e.Name)
}

// culpritPath searches backward from the violating node v for a source
// node u whose module data must not reach v, returning u and the wiring
// hops on the u-to-v flow.
func (a *Analysis) culpritPath(nw *rsn.Network, v int) (int, []hop, error) {
	u, _, hops, err := a.flowChain(nw, v)
	return u, hops, err
}

// flowChain is culpritPath plus the full node chain from culprit to
// target (used by Explain). The BFS runs once per violation inside the
// resolve loop, so its state lives in dense slices keyed by combined
// index and it walks the CSR copy of Base's path in-edges:
// visited/parentNext/wireFrom are flat arrays of a.total entries, and
// a wiring hop records its source register on the edge's tail, its
// fed register being the one whose bit 0 is the edge's head.
func (a *Analysis) flowChain(nw *rsn.Network, v int) (int, []int, []hop, error) {
	visited := make([]bool, a.total)
	parentNext := make([]int32, a.total) // node x flows into parentNext[x], toward v
	wireFrom := make([]int32, a.total)   // r+1 if x -> parentNext[x] is a wiring hop out of register r, else 0
	visited[v] = true
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(v))
	vmod := a.nodeModule[v]
	var culprit = -1
	for head := 0; head < len(queue) && culprit < 0; head++ {
		y := int(queue[head])
		expand := func(x int, wire int32) {
			if visited[x] || !a.Denoted[x] {
				return
			}
			visited[x] = true
			parentNext[x] = int32(y)
			wireFrom[x] = wire
			if a.Spec.Violates(a.nodeModule[x], vmod) {
				culprit = x
			}
			queue = append(queue, int32(x))
		}
		for _, x := range a.pathIn.Row(y) {
			if expand(int(x), 0); culprit >= 0 {
				break
			}
		}
		if culprit >= 0 {
			break
		}
		if r := a.headReg[y]; r >= 0 {
			// Each node is dequeued at most once, so resolving the
			// register's wiring sources here (instead of precomputing
			// them for every register) does no repeated work.
			for _, src := range nw.EffectiveSources(int(r)) {
				if src.Kind != rsn.KRegister {
					continue
				}
				if expand(a.lastIndex(int(src.ID)), src.ID+1); culprit >= 0 {
					break
				}
			}
		}
	}
	if culprit < 0 {
		return -1, nil, nil, fmt.Errorf("hybrid: node %s violates but no culprit flow found", a.NodeName(v))
	}
	var hops []hop
	chain := []int{culprit}
	for n := culprit; n != v; {
		next := int(parentNext[n])
		if from := wireFrom[n]; from > 0 {
			hops = append(hops, hop{From: int(from - 1), To: int(a.headReg[next])})
		}
		n = next
		chain = append(chain, n)
	}
	if len(hops) == 0 {
		return culprit, chain, nil, &ErrInsecureLogic{Src: culprit, Dst: v,
			Name: fmt.Sprintf("%s -> %s", a.NodeName(culprit), a.NodeName(v))}
	}
	return culprit, chain, hops, nil
}

// maxChanges bounds the resolve loop against pathological oscillation.
func maxChanges(nw *rsn.Network) int { return 8*len(nw.Registers) + 64 }

// Resolve repeatedly detects and repairs hybrid-path violations until
// the network is secure. It mutates nw and returns the applied changes.
//
// Violation checking is incremental: the fixed point of the current
// wiring is computed once and threaded through the loop, each candidate
// cut/reconnect is evaluated by delta propagation from it (only the
// dirty cone downstream of the changed wiring is re-run), and the
// winning candidate's fixed point becomes the next iteration's current
// one — CutAndReconnect is deterministic, so re-applying the winning
// change to nw reproduces the trial wiring exactly. Candidate trials
// fan out over the engine's worker pool; the unique greatest fixed
// point and the strict minimum-cost tie-break in candidate order keep
// the applied changes byte-identical to the sequential evaluation at
// any worker count. The analysis's engine context is honored between
// iterations, and the stage's wall time and change count are reported
// through its engine stats.
func Resolve(a *Analysis, nw *rsn.Network) (*Result, error) {
	stage := a.eng.Begin("resolve")
	defer stage.End()
	res := &Result{}
	defer func() {
		stage.AddQueries(int64(len(res.Changes)))
		stage.SetAttrs(obs.Int("violations_before", int64(res.ViolationsBefore)),
			obs.Int("changes", int64(len(res.Changes))))
	}()
	ctx := a.eng.Ctx()
	cur := a.fixedPoint(nw)
	res.ViolationsBefore = len(a.violationsFrom(cur))
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		viols := a.violationsFrom(cur)
		if len(viols) == 0 {
			return res, nil
		}
		if len(res.Changes) >= maxChanges(nw) {
			return res, fmt.Errorf("hybrid: resolution did not converge after %d changes (%d violations left)", len(res.Changes), len(viols))
		}
		v := viols[0].Node
		u, hops, err := a.culpritPath(nw, v)
		if err != nil {
			return res, err
		}
		ch, next, err := a.resolveOne(stage, nw, cur, u, v, hops, len(viols))
		if err != nil {
			return res, err
		}
		res.Changes = append(res.Changes, ch)
		cur = next
	}
}

// resolveOne cuts one wiring hop of the violating flow and re-connects
// the separated segments, evaluating candidates on clones and applying
// the lowest-cost acceptable one. cur is the fixed point of nw's
// current wiring; the returned propagation is the fixed point of the
// applied change's wiring.
func (a *Analysis) resolveOne(stage engine.Stage, nw *rsn.Network, cur *propagation, u, v int, hops []hop, before int) (rsn.Change, *propagation, error) {
	type candidate struct {
		pin    rsn.Sink
		newSrc rsn.Ref
	}
	var cands []candidate
	for _, h := range hops {
		pin := rsn.Sink{Elem: rsn.Reg(h.To), Idx: 0}
		// Compatible pure-path predecessors of the segment being cut
		// free, cheapest first; then the always-available scan-in port.
		smod := a.regModule[h.To]
		taken := 0
		for _, pr := range nw.PurePredecessors(h.To) {
			if pr == h.From {
				continue
			}
			if !cur.attrOut[a.lastIndex(pr)].Has(a.Spec.Trust[smod]) {
				continue
			}
			cands = append(cands, candidate{pin, rsn.Reg(pr)})
			if taken++; taken >= 4 {
				break
			}
		}
		cands = append(cands, candidate{pin, rsn.ScanIn})
	}

	// Evaluate every candidate in parallel over the worker pool, each
	// worker applying candidates to its own copy of the network in place
	// and undoing them (a single worker uses nw itself). Each result
	// lands in its candidate's slot; the trial fixed points are exact
	// (delta propagation from cur reproduces the unique greatest fixed
	// point), so scheduling cannot change any score. Structural
	// validation is deferred to winner selection — candidates rarely
	// fail it, so scoring first and validating only prospective winners
	// trades a per-candidate graph traversal for a per-change one
	// without affecting which valid candidate wins.
	type scored struct {
		ok      bool
		muxes   int
		removed bool
		after   int
		p       *propagation
	}
	results := make([]scored, len(cands))
	stage.AddItems(int64(len(cands)))
	// The current wiring's reverse adjacency, built once per round; each
	// trial patches only the sinks its cut/reconnect changed.
	w := a.buildWiring(nw)
	evalCand := func(net *rsn.Network, i int) {
		c := cands[i]
		rw, err := net.Rewire(c.pin, c.newSrc)
		if err != nil {
			return
		}
		tw, seeds := a.trialWiring(w, net, rw)
		tp, dv := a.propagateDeltaOn(cur, tw, net, seeds)
		if after := before + dv; after <= before {
			results[i] = scored{
				ok: true, muxes: len(net.Muxes) - rw.Muxes,
				removed: !a.violates(tp, v), after: after, p: tp,
			}
		}
		net.Undo(rw)
	}
	if workers := a.eng.WorkerCount(); workers > 1 && len(cands) > 1 {
		if workers > len(cands) {
			workers = len(cands)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				net := nw.Clone()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cands) {
						return
					}
					evalCand(net, i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range cands {
			evalCand(nw, i)
		}
	}

	// Pick the winner with a strict tie-break in candidate order: the
	// first candidate strictly better than everything chosen before it,
	// byte-identical to the former sequential scan. A prospective
	// winner is validated by applying it to nw; one that fails is undone
	// and discarded and the scan repeated — removing an invalid maximum
	// one at a time selects exactly the maximum over the valid
	// candidates, so deferring validation cannot change the applied
	// change.
	betterThan := func(s, t *scored) bool {
		if t == nil {
			return true
		}
		if s.removed != t.removed {
			return s.removed
		}
		if s.after != t.after {
			return s.after < t.after
		}
		return s.muxes < t.muxes
	}
	for {
		best := -1
		for i := range results {
			if !results[i].ok {
				continue
			}
			var cmp *scored
			if best >= 0 {
				cmp = &results[best]
			}
			if betterThan(&results[i], cmp) {
				best = i
			}
		}
		if best < 0 {
			return rsn.Change{}, nil, fmt.Errorf("hybrid: no valid candidate to sever flow %s -> %s", a.NodeName(u), a.NodeName(v))
		}
		c := cands[best]
		oldSrc := nw.SinkSource(c.pin)
		rw, err := nw.Rewire(c.pin, c.newSrc)
		if err != nil {
			return rsn.Change{}, nil, err
		}
		if nw.Validate() != nil {
			nw.Undo(rw)
			results[best].ok = false
			continue
		}
		return rsn.Change{
			Cut:      c.pin,
			OldSrc:   oldSrc,
			NewSrc:   c.newSrc,
			NewMuxes: results[best].muxes,
		}, results[best].p, nil
	}
}
