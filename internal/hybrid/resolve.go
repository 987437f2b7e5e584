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

// maxChanges bounds a resolution against pathological oscillation. The
// pure stage never reaches it: each of its rounds removes at least one
// violating register (DESIGN.md, "Pure stage on the hybrid engine").
func maxChanges(nw *rsn.Network) int { return 8*len(nw.Registers) + 64 }

// Resolve repeatedly detects and repairs hybrid-path violations until
// the network is secure. It mutates nw and returns the applied changes.
// Each round finds the violating flow into the lowest violating node
// (flowChain), tries cutting each wiring hop on it and re-feeding the
// cut register from up to 4 compatible pure-path predecessors or the
// scan-in port, and applies the trial that removes the targeted
// violation, then leaves fewest violations, then inserts fewest muxes
// (resolve's loop). The fixed point of the current wiring is computed
// once (through the analysis's cache) and threaded through the loop.
// The analysis's engine context is honored between rounds, and the
// stage "resolve" counts candidates as items and changes as queries.
func Resolve(a *Analysis, nw *rsn.Network) (*Result, error) {
	stage := a.eng.Begin("resolve")
	defer stage.End()
	return a.resolve(nw, a.fixedPoint(nw), nil, a.eng, stage, a.hybridPlan(nw, stage))
}

// hybridPlan returns Resolve's plan for nw, reporting its counters to
// counters.
func (a *Analysis) hybridPlan(nw *rsn.Network, counters engine.Stage) *plan {
	return &plan{
		name: "hybrid",
		candidates: func(cur *propagation, v int, sc *chainScratch, dst []rsn.Candidate) (int, []rsn.Candidate, error) {
			u, _, hops, err := a.flowChain(nw, v, sc)
			if err != nil {
				return u, dst, err
			}
			for _, h := range hops {
				trust := a.Spec.Trust[a.regModule[h.To]]
				dst = rsn.AppendCandidates(dst, h.To, nw.PurePredecessors(h.To, &sc.marks), rsn.Reg(h.From), 4, func(pr int) bool {
					return cur.attrOut[a.lastIndex(pr)].Has(trust)
				})
			}
			return u, dst, nil
		},
		stuck: func(u, v int) error {
			return fmt.Errorf("hybrid: no valid candidate to sever flow %s -> %s", a.NodeName(u), a.NodeName(v))
		},
		better:   byRemoved,
		counters: counters,
	}
}

// byRemoved ranks hybrid trials: the targeted violation removed, then
// fewer violations left, then fewer inserted muxes.
func byRemoved(s, t score) bool {
	if s.removed != t.removed {
		return s.removed
	}
	if s.dv != t.dv {
		return s.dv < t.dv
	}
	return s.muxes < t.muxes
}

// plan is what a resolution stage brings to resolve's loop.
type plan struct {
	// name prefixes the loop's own errors.
	name string
	// candidates finds the culprit u of the flow into violating node v
	// under cur, the round's fixed point, and appends the round's
	// candidates to dst; sc is the round state's search scratch.
	candidates func(cur *propagation, v int, sc *chainScratch, dst []rsn.Candidate) (u int, cands []rsn.Candidate, err error)
	// stuck returns the error of a round in which no candidate to sever
	// the flow from u to v is accepted and valid.
	stuck func(u, v int) error
	// better is the strict order that ranks accepted trials.
	better func(s, t score) bool
	// counters receives each round's candidates as items and the
	// applied changes as queries.
	counters engine.Stage
}

// score is one accepted trial: whether it removes the targeted
// violation, its change in the number of violations, its inserted
// muxes, its fixed point's difference from the round's and its wiring.
type score struct {
	removed   bool
	dv, muxes int
	diff      *attrDiff
	tw        *wiring
}

// resolve runs p's resolution of nw, whose fixed point is cur, until no
// violation is left, reporting the violations before and the applied
// changes on stage's span. Each round targets the lowest violating node
// and applies the best of p's candidates (step); the violation count is
// carried from round to round by the winners' deltas. w is nw's wiring,
// or nil to build it on the first round that has candidates; either
// way it is built once per resolution and edited to each winner's.
// opts' context is checked every round, and its workers run the
// trials.
func (a *Analysis) resolve(nw *rsn.Network, cur *propagation, w *wiring, opts engine.Options, stage engine.Stage, p *plan) (*Result, error) {
	res := &Result{}
	defer func() {
		p.counters.AddQueries(int64(len(res.Changes)))
		stage.SetAttrs(obs.Int("violations_before", int64(res.ViolationsBefore)),
			obs.Int("changes", int64(len(res.Changes))))
	}()
	viols := len(a.violationsFrom(cur))
	res.ViolationsBefore = viols
	rs := getRoundState()
	defer roundPool.Put(rs)
	var rr *rsn.Rounds
	var cands []rsn.Candidate
	for {
		if err := opts.Err(); err != nil {
			return res, err
		}
		v := a.firstViolation(cur)
		if v < 0 {
			return res, nil
		}
		if len(res.Changes) >= maxChanges(nw) {
			return res, fmt.Errorf("%s: resolution did not converge after %d changes (%d violations left)", p.name, len(res.Changes), viols)
		}
		u, cs, err := p.candidates(cur, v, &rs.chain, cands[:0])
		if err != nil {
			return res, err
		}
		cands = cs
		p.counters.AddItems(int64(len(cands)))
		if rr == nil {
			if w == nil {
				w = a.buildWiring(nw)
			}
			rr = a.rounds(nw, w, opts.WorkerCount())
		}
		ch, s, next, ok := a.step(nw, cur, rs, w, rr, cands, v, p.better)
		if !ok {
			return res, p.stuck(u, v)
		}
		res.Changes = append(res.Changes, ch)
		cur, viols = next, viols+s.dv
		if roundCheck != nil {
			roundCheck(a, nw, p, w, rr, cur, v, viols-s.dv, viols)
		}
	}
}

// roundCheck, when set (by the package's tests), runs after every
// change a resolution applies, on the state the next round starts from:
// p is the stage's plan, v the round's target, and before and viols
// the carried violation counts before and after the change.
var roundCheck func(a *Analysis, nw *rsn.Network, p *plan, w *wiring, rr *rsn.Rounds, cur *propagation, v, before, viols int)

// rounds returns the round state of a resolution of nw whose current
// wiring is w: the pins a source feeds are its row's length, and the
// candidates come from rsn.AppendCandidates.
func (a *Analysis) rounds(nw *rsn.Network, w *wiring, workers int) *rsn.Rounds {
	fed := func(src rsn.Ref) int { return len(w.sinks(a.srcIdx(src))) }
	return &rsn.Rounds{Net: nw, Workers: workers, Fed: fed}
}

// step runs one round over cands on nw, whose fixed point is cur and
// whose wiring is w, targeting violating node v. Each trial patches
// only the sinks its cut/reconnect changed (trialWiring) and repairs
// cur's witnesses for them into a diff (delta); it is accepted when it
// adds no violation. The witness levels are cur's: the previous
// winner's repaired ones, or those of the fixed point the resolution
// started from. rsn.ApplyRound applies the best accepted valid trial
// under better, w is edited to its wiring and its diff alone is
// materialised, with its levels, into rs. The repair reproduces the
// unique greatest fixed point, so the worker count cannot change any
// score. step returns the change, its score and its fixed point, or
// false if no candidate is accepted and valid.
func (a *Analysis) step(nw *rsn.Network, cur *propagation, rs *roundState, w *wiring, rr *rsn.Rounds, cands []rsn.Candidate, v int, better func(s, t score) bool) (rsn.Change, score, *propagation, bool) {
	trust := a.Spec.Trust[a.nodeModule[v]]
	defer rs.release()
	trial := func(net *rsn.Network, rw rsn.Rewiring) (score, bool) {
		tw, seeds := a.trialWiring(w, net, rw)
		d := rs.diff()
		dv, in := a.delta(cur, cur.lv, tw, net, seeds, v, d)
		return score{in.Has(trust), dv, len(net.Muxes) - rw.Muxes, d, tw}, dv <= 0
	}
	ch, best, ok := rsn.ApplyRound(rr, cands, trial, better)
	if !ok {
		return ch, best, nil, false
	}
	w.commit(best.tw)
	size := a.total + len(nw.Muxes)
	next, nlv := rs.next(size * a.ncat())
	return ch, best, a.materialise(next, cur, cur.lv, best.diff, size, nlv), true
}
