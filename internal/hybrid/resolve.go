package hybrid

import (
	"fmt"

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

// flowChain searches backward from the violating node v for a source
// node u whose module data must not reach v, returning u, the node
// chain from u to v (used by Explain) and the wiring hops on the
// u-to-v flow. The BFS runs once per violation inside the resolve
// loop, so its state lives in dense slices keyed by combined index and
// it walks the CSR copy of Base's path in-edges: visited/parentNext/
// wireFrom are flat arrays of a.total entries, and a wiring hop records
// its source register on the edge's tail, its fed register being the
// one whose bit 0 is the edge's head.
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
// one (rsn.ApplyBest applies the winner with the same Rewire its trial
// used). Candidate trials fan out over the engine's worker pool; the
// unique greatest fixed point and the strict tie-break in candidate
// order keep the applied changes byte-identical to the sequential
// evaluation at any worker count. The analysis's engine context is
// honored between iterations, and the stage's wall time and change
// count are reported through its engine stats.
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
		u, _, hops, err := a.flowChain(nw, v)
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

// hybridScore is one accepted trial: whether it removes the targeted
// violation, the number of violations after it, its inserted muxes and
// its fixed point.
type hybridScore struct {
	removed      bool
	after, muxes int
	p            *propagation
}

// resolveOne cuts one wiring hop of the violating flow and re-connects
// the separated segments, applying the best acceptable candidate. cur
// is the fixed point of nw's current wiring; the returned propagation
// is the fixed point of the applied change's wiring.
func (a *Analysis) resolveOne(stage engine.Stage, nw *rsn.Network, cur *propagation, u, v int, hops []hop, before int) (rsn.Change, *propagation, error) {
	var cands []rsn.Candidate
	for _, h := range hops {
		trust := a.Spec.Trust[a.regModule[h.To]]
		cands = nw.AppendCandidates(cands, h.To, rsn.Reg(h.From), 4, func(pr int) bool {
			return cur.attrOut[a.lastIndex(pr)].Has(trust)
		})
	}
	stage.AddItems(int64(len(cands)))
	// The current wiring's reverse adjacency, built once per round; each
	// trial patches only the sinks its cut/reconnect changed. The trial
	// fixed points are exact (delta propagation from cur reproduces the
	// unique greatest fixed point), so the worker count cannot change
	// any score.
	w := a.buildWiring(nw)
	trial := func(net *rsn.Network, rw rsn.Rewiring) (hybridScore, bool) {
		tw, seeds := a.trialWiring(w, net, rw)
		tp, dv := a.propagateDeltaOn(cur, tw, net, seeds)
		return hybridScore{!a.violates(tp, v), before + dv, len(net.Muxes) - rw.Muxes, tp}, dv <= 0
	}
	ch, best, ok := rsn.ApplyBest(nw, cands, a.eng.WorkerCount(), trial, func(s, t hybridScore) bool {
		if s.removed != t.removed {
			return s.removed
		}
		if s.after != t.after {
			return s.after < t.after
		}
		return s.muxes < t.muxes
	})
	if !ok {
		return rsn.Change{}, nil, fmt.Errorf("hybrid: no valid candidate to sever flow %s -> %s", a.NodeName(u), a.NodeName(v))
	}
	return ch, best.p, nil
}
