package hybrid

import (
	"fmt"
	"slices"

	"repro/internal/engine"
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

// ResolvePure repeatedly finds and repairs pure-path violations until
// the network is pure-path secure. It mutates nw and returns the
// applied changes; ViolationsBefore counts violating registers. Each
// round cuts the input of the lowest violating register and re-connects
// the separated segments, choosing the cheapest candidate, then the
// one leaving fewest violations, among those that add no violation and
// keep the network valid. It runs resolve's loop over the register
// view, propagated once up front; every candidate trial is a witness
// repair of the round's fixed point, fanned out over opts' workers. A
// cyclic network is refused; a cyclic trial wiring still repairs to a
// fixed point, and ApplyRound's validation never applies it. opts'
// context is checked every round, and the stage "pure-resolve" is
// reported through opts' stats and tracer; it counts no items or
// queries.
func ResolvePure(nw *rsn.Network, spec *secspec.Spec, opts engine.Options) (*Result, error) {
	stage := opts.Begin("pure-resolve")
	defer stage.End()
	a := newRegisterView(nw, spec)
	w := a.buildWiring(nw)
	if !acyclic(w) {
		return &Result{}, fmt.Errorf("pure: scan network %q is cyclic", nw.Name)
	}
	return a.resolve(nw, a.propagate(nw), w, opts, stage, &plan{
		name: "pure",
		// One predecessor walk per round serves the culprit search and
		// the candidates. Every predecessor of a deep chain position
		// would cost a trial each, so the predecessor candidates are
		// capped.
		candidates: func(cur *propagation, y int, sc *chainScratch, dst []rsn.Candidate) (int, []rsn.Candidate, error) {
			preds := nw.PurePredecessors(y, &sc.marks)
			x, ok := FindCulprit(nw, spec, y, preds)
			if !ok {
				return 0, dst, fmt.Errorf("pure: register R%d violates but no culprit found", y)
			}
			trust := spec.Trust[nw.Registers[y].Module]
			return x, rsn.AppendCandidates(dst, y, preds, nw.Registers[y].In, 6, func(pr int) bool {
				return cur.attrOut[pr].Has(trust)
			}), nil
		},
		stuck: func(x, y int) error {
			return fmt.Errorf("pure: no valid candidate to separate R%d from R%d", x, y)
		},
		better: byCost,
	})
}

// byCost ranks pure trials by structural cost (rsn.Change.Cost, one
// plus the inserted muxes), then by the violations left.
func byCost(s, t score) bool { return s.muxes < t.muxes || s.muxes == t.muxes && s.dv < t.dv }
