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

// chainScratch is flowChain's search state, kept in the pooled
// roundState so that a round's search allocates nothing once grown.
// Between searches only the previous search's queued nodes are marked
// visited.
type chainScratch struct {
	visited              []bool
	parentNext, wireFrom []int32
	queue                []int32
	srcs                 []rsn.Ref
	marks                rsn.Marks
}

// flowChain searches backward from the violating node v for a source
// node u whose module data must not reach v, returning u, the node
// chain from u to v (used by Explain) and the wiring hops on the
// u-to-v flow. The BFS runs once per violation inside the resolve
// loop, so its state lives in sc, keyed by combined index, and it
// walks the CSR copy of the bridged path in-edges: node x flows into
// parentNext[x], toward v, and wireFrom[x] is r+1 if that step is a
// wiring hop out of register r, else 0; the fed register is the one
// whose bit 0 is the edge's head.
func (a *Analysis) flowChain(nw *rsn.Network, v int, sc *chainScratch) (int, []int, []hop, error) {
	for _, x := range sc.queue {
		sc.visited[x] = false
	}
	sc.visited, sc.parentNext, sc.wireFrom = grow(sc.visited, a.total), grow(sc.parentNext, a.total), grow(sc.wireFrom, a.total)
	sc.visited[v] = true
	sc.queue = append(sc.queue[:0], int32(v))
	vmod := a.nodeModule[v]
	var culprit = -1
	for head := 0; head < len(sc.queue) && culprit < 0; head++ {
		y := int(sc.queue[head])
		expand := func(x int, wire int32) {
			if sc.visited[x] || !a.Denoted[x] {
				return
			}
			sc.visited[x] = true
			sc.parentNext[x] = int32(y)
			sc.wireFrom[x] = wire
			if a.Spec.Violates(a.nodeModule[x], vmod) {
				culprit = x
			}
			sc.queue = append(sc.queue, int32(x))
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
			sc.srcs = nw.AppendEffectiveSources(sc.srcs[:0], int(r), &sc.marks)
			for _, src := range sc.srcs {
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
		next := int(sc.parentNext[n])
		if from := sc.wireFrom[n]; from > 0 {
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
// cut/reconnect is evaluated by repairing it (delta: only the witnesses
// the changed wiring breaks or creates are re-derived) into an overlay
// that yields the trial's score and a compact diff, and only the
// winning candidate's diff is materialised as the next iteration's
// fixed point, with its violation count (rsn.ApplyRound applies the
// winner with the same rewiring its trial used, and the wiring, built
// once, is edited to it). Candidate trials fan out over the engine's
// worker pool; the unique greatest fixed point and the strict tie-break
// in candidate order keep the applied changes byte-identical to the
// sequential evaluation at any worker count. The analysis's engine
// context is honored between iterations, and the stage's wall time and
// change count are reported through its engine stats.
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
	viols := len(a.violationsFrom(cur))
	res.ViolationsBefore = viols
	rs := getRoundState()
	defer roundPool.Put(rs)
	var w *wiring
	var rr *rsn.Rounds
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		v := a.firstViolation(cur)
		if v < 0 {
			return res, nil
		}
		if len(res.Changes) >= maxChanges(nw) {
			return res, fmt.Errorf("hybrid: resolution did not converge after %d changes (%d violations left)", len(res.Changes), viols)
		}
		u, _, hops, err := a.flowChain(nw, v, &rs.chain)
		if err != nil {
			return res, err
		}
		if w == nil {
			w = a.buildWiring(nw)
			rr = a.rounds(nw, w, a.eng.WorkerCount())
		}
		ch, next, after, err := a.resolveOne(stage, nw, cur, rs, w, rr, u, v, hops, viols)
		if err != nil {
			return res, err
		}
		res.Changes = append(res.Changes, ch)
		cur, viols = next, after
		if roundCheck != nil {
			roundCheck(a, nw, w, rr, cur, viols)
		}
	}
}

// roundCheck, when set (by the package's tests), runs after every
// change a resolution applies, on the state the next round starts from;
// viols is the carried violation count, -1 in ResolvePure, which
// carries none.
var roundCheck func(a *Analysis, nw *rsn.Network, w *wiring, rr *rsn.Rounds, cur *propagation, viols int)

// rounds returns the round state of a resolution of nw whose current
// wiring is w: the pins a source feeds are its row's length, and the
// candidates come from rsn.AppendCandidates.
func (a *Analysis) rounds(nw *rsn.Network, w *wiring, workers int) *rsn.Rounds {
	fed := func(src rsn.Ref) int { return len(w.sinks(a.srcIdx(src))) }
	return &rsn.Rounds{Net: nw, Workers: workers, Fed: fed}
}

// hybridScore is one accepted trial: whether it removes the targeted
// violation, the number of violations after it, its inserted muxes,
// its fixed point's difference from the round's and its wiring.
type hybridScore struct {
	removed      bool
	after, muxes int
	diff         *attrDiff
	tw           *wiring
}

// resolveOne cuts one wiring hop of the violating flow and re-connects
// the separated segments, applying the best acceptable candidate. cur
// is the fixed point of nw's current wiring w, with before violations;
// the returned fixed point, with its levels and violation count, is the
// applied change's and lives in rs, and w is edited to its wiring.
func (a *Analysis) resolveOne(stage engine.Stage, nw *rsn.Network, cur *propagation, rs *roundState, w *wiring, rr *rsn.Rounds, u, v int, hops []hop, before int) (rsn.Change, *propagation, int, error) {
	var cands []rsn.Candidate
	for _, h := range hops {
		trust := a.Spec.Trust[a.regModule[h.To]]
		cands = rsn.AppendCandidates(cands, h.To, nw.PurePredecessors(h.To, &rs.chain.marks), rsn.Reg(h.From), 4, func(pr int) bool {
			return cur.attrOut[a.lastIndex(pr)].Has(trust)
		})
	}
	stage.AddItems(int64(len(cands)))
	// Each trial patches only the sinks its cut/reconnect changed. The
	// witness levels are cur's — the previous winner's repaired ones,
	// or the cached fixed point's — or, when it has none, a level BFS's.
	// Trials are overlays that return their score and diff, and only
	// the winner's diff is materialised. The repair reproduces the
	// unique greatest fixed point, so the worker count cannot change
	// any score.
	lv := cur.lv
	if lv == nil {
		_, lv = rs.next(len(cur.attrOut) * a.ncat())
		a.levels(cur, nw, w, lv, &rs.sc)
	}
	trust := a.Spec.Trust[a.nodeModule[v]]
	defer rs.release()
	trial := func(net *rsn.Network, rw rsn.Rewiring) (hybridScore, bool) {
		tw, seeds := a.trialWiring(w, net, rw)
		d := rs.diff()
		dv, in := a.delta(cur, lv, tw, net, seeds, v, d)
		return hybridScore{in.Has(trust), before + dv, len(net.Muxes) - rw.Muxes, d, tw}, dv <= 0
	}
	ch, best, ok := rsn.ApplyRound(rr, cands, trial, func(s, t hybridScore) bool {
		if s.removed != t.removed {
			return s.removed
		}
		if s.after != t.after {
			return s.after < t.after
		}
		return s.muxes < t.muxes
	})
	if !ok {
		return rsn.Change{}, nil, 0, fmt.Errorf("hybrid: no valid candidate to sever flow %s -> %s", a.NodeName(u), a.NodeName(v))
	}
	w.commit(best.tw)
	size := a.total + len(nw.Muxes)
	next, nlv := rs.next(size * a.ncat())
	return ch, a.materialise(next, cur, lv, best.diff, size, nlv), best.after, nil
}
