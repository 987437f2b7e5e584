package hybrid

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// The pure stage (the method of Raiola et al., IOLTS 2018, that the
// paper applies first, Figure 2) resolves violations over pure scan
// paths — paths that use only the scan infrastructure. Its attribute
// equations are the hybrid ones restricted to the wiring: the attribute
// arriving at a register is the intersection of what its sources carry
// out, and a register carries out what its module accepts of it. So a
// category is missing at a register exactly when a register that
// refuses it reaches it over scan wiring — the same reachability fixed
// point, computed and repaired by the same engine over the register
// view (newRegisterView).

// acyclic reports whether wiring w closes no cycle: every strongly
// connected component is one node without a self-loop.
func acyclic(w *wiring) bool {
	if _, _, start := w.rows.SCC(); len(start)-1 != w.rows.Len() {
		return false
	}
	for n := range w.rows.Len() {
		if slices.Contains(w.rows.Row(n), int32(n)) {
			return false
		}
	}
	return true
}

// firstViolation returns the lowest node of p whose trust category is
// missing from its incoming attribute, or -1.
func (a *Analysis) firstViolation(p *propagation) int {
	for n := range a.total {
		if a.Denoted[n] && !p.attrIn[n].Has(a.Spec.Trust[a.nodeModule[n]]) {
			return n
		}
	}
	return -1
}

// FindCulprit returns the first of preds, the pure-path predecessors
// of register y (PurePredecessors), whose data must not traverse y, if
// any.
func FindCulprit(nw *rsn.Network, spec *secspec.Spec, y int, preds []int) (int, bool) {
	ymod := nw.Registers[y].Module
	for _, x := range preds {
		if spec.Violates(nw.Registers[x].Module, ymod) {
			return x, true
		}
	}
	return 0, false
}

// maxRounds bounds the pure resolve loop; beyond it only the provably
// terminating scan-in fallback candidate is used.
func maxRounds(nw *rsn.Network) int { return 4*len(nw.Registers) + 16 }

// ResolvePure repeatedly finds and repairs pure-path violations until
// the network is pure-path secure. It mutates nw and returns the
// applied changes; ViolationsBefore counts violating registers. Each
// round cuts the input of the lowest violating register and re-connects
// the separated segments, choosing the cheapest candidate that removes
// the targeted flow without adding violations and that keeps the
// network valid. The register view is propagated once up front; every
// candidate trial is a witness repair of the round's fixed point
// (delta), fanned out over opts' workers, and only the winner's is
// materialised, with Resolve's committed wiring and clones. A cyclic
// network is refused; a cyclic trial wiring still repairs to a fixed
// point, and ApplyRound's validation never applies it. opts' context
// is checked every round, and the stage "pure-resolve" is reported
// through opts' stats and tracer.
func ResolvePure(nw *rsn.Network, spec *secspec.Spec, opts engine.Options) (*Result, error) {
	stage := opts.Begin("pure-resolve")
	defer stage.End()
	res := &Result{}
	defer func() {
		stage.SetAttrs(obs.Int("violations_before", int64(res.ViolationsBefore)),
			obs.Int("changes", int64(len(res.Changes))))
	}()
	a := newRegisterView(nw, spec)
	w := a.buildWiring(nw)
	if !acyclic(w) {
		return res, fmt.Errorf("pure: scan network %q is cyclic", nw.Name)
	}
	cur := a.propagate(nw)
	res.ViolationsBefore = len(a.violationsFrom(cur))
	rs := getRoundState()
	defer roundPool.Put(rs)
	rr := a.rounds(nw, w, opts.WorkerCount())
	for round := 0; ; round++ {
		if err := opts.Err(); err != nil {
			return res, err
		}
		y := a.firstViolation(cur)
		if y < 0 {
			return res, nil
		}
		// One predecessor walk per round serves the culprit search and
		// the candidates.
		preds := nw.PurePredecessors(y, &rs.chain.marks)
		x, ok := FindCulprit(nw, spec, y, preds)
		if !ok {
			return res, fmt.Errorf("pure: register R%d violates but no culprit found", y)
		}
		ch, next, err := a.resolvePureOne(nw, cur, rs, w, rr, preds, x, y, round >= maxRounds(nw))
		if err != nil {
			return res, err
		}
		res.Changes = append(res.Changes, ch)
		cur = next
		if roundCheck != nil {
			roundCheck(a, nw, w, rr, cur, -1)
		}
	}
}

// pureScore is one accepted pure trial: its structural cost, its change
// in the number of violating registers, its fixed point's difference
// from the round's and its wiring.
type pureScore struct {
	cost, dv int
	diff     *attrDiff
	tw       *wiring
}

// resolvePureOne repairs the flow from register x into register y by
// cutting y's input and re-connecting the separated segments. cur is
// the fixed point of nw's current wiring w and preds y's pure-path
// predecessors; the returned fixed point, with its levels, is the
// applied change's and lives in rs, and w is edited to its wiring.
// With fallbackOnly set, only the always-valid candidate (connect y to
// the scan-in port) is considered.
func (a *Analysis) resolvePureOne(nw *rsn.Network, cur *propagation, rs *roundState, w *wiring, rr *rsn.Rounds, preds []int, x, y int, fallbackOnly bool) (rsn.Change, *propagation, error) {
	// Every predecessor of a deep chain position would cost a trial
	// each, so the predecessor candidates are capped.
	limit := 6
	if fallbackOnly {
		limit = 0
	}
	trust := a.Spec.Trust[a.nodeModule[y]]
	cands := rsn.AppendCandidates(nil, y, preds, nw.Registers[y].In, limit, func(pr int) bool {
		return cur.attrOut[pr].Has(trust)
	})
	defer rs.release()
	trial := func(net *rsn.Network, rw rsn.Rewiring) (pureScore, bool) {
		tw, seeds := a.trialWiring(w, net, rw)
		d := rs.diff()
		dv, in := a.delta(cur, cur.lv, tw, net, seeds, y, d)
		// The targeted violation must be gone, or x no longer reach y,
		// and the number of violating registers must not grow.
		if (!in.Has(trust) && net.PureReaches(rsn.Reg(x), rsn.Reg(y))) || dv > 0 {
			return pureScore{}, false
		}
		return pureScore{1 + len(net.Muxes) - rw.Muxes, dv, d, tw}, true
	}
	ch, best, ok := rsn.ApplyRound(rr, cands, trial, func(s, t pureScore) bool {
		return s.cost < t.cost || (s.cost == t.cost && s.dv < t.dv)
	})
	if !ok {
		// The fallback candidate cannot fail validation; reaching this
		// point indicates an internal inconsistency.
		return rsn.Change{}, nil, fmt.Errorf("pure: no valid candidate to separate R%d from R%d", x, y)
	}
	w.commit(best.tw)
	size := a.total + len(nw.Muxes)
	next, nlv := rs.next(size * a.ncat())
	return ch, a.materialise(next, cur, cur.lv, best.diff, size, nlv), nil
}
