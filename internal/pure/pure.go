// Package pure detects and resolves security violations over pure scan
// paths — paths that use only the scan infrastructure — implementing
// the method of Raiola et al. (IOLTS 2018) that the secure-data-flow
// paper applies as its first stage (Figure 2).
//
// Security attributes are propagated once, forward, from the scan-in
// port over every scan segment toward the scan-out port: the attribute
// arriving at a segment is the intersection of the accepted-category
// masks of everything upstream. A segment whose own trust category is
// missing from its incoming attribute sits on a configurable scan path
// downstream of data that must not traverse it — a violation. Found
// violations are resolved by cutting the offending connection and
// re-connecting the separated segments, choosing the lowest-cost
// candidate that keeps the network acyclic and every register
// accessible.
package pure

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Propagation holds the forward-propagated security attributes of one
// network under one specification. Attributes live in flat per-element
// arrays keyed by a dense element index — the two ports, then the
// registers, then the muxes, so the muxes a trial re-attachment inserts
// extend the arrays at the end. The resolve loop derives one
// propagation per candidate trial from the round's current one,
// re-evaluating only the elements downstream of the trial's changed
// connections.
type Propagation struct {
	nw *rsn.Network
	// in and out hold the attribute (accepted-category mask) arriving
	// at and leaving each element, keyed by elemIndex.
	in, out []secspec.CatSet
	// Violating lists the registers whose trust category is missing
	// from their incoming attribute, ascending.
	Violating []int
}

// Element indices of the ports; register r is 2+r, mux m is 2+R+m.
const (
	scanInElem  = 0
	scanOutElem = 1
)

// elemIndex maps an element reference to its dense element index.
func elemIndex(nw *rsn.Network, r rsn.Ref) int {
	switch r.Kind {
	case rsn.KScanIn:
		return scanInElem
	case rsn.KScanOut:
		return scanOutElem
	case rsn.KRegister:
		return 2 + int(r.ID)
	}
	return 2 + len(nw.Registers) + int(r.ID)
}

// numElems returns the size of nw's element index space.
func numElems(nw *rsn.Network) int { return 2 + len(nw.Registers) + len(nw.Muxes) }

// In returns the attribute arriving at the element.
func (p *Propagation) In(r rsn.Ref) secspec.CatSet { return p.in[elemIndex(p.nw, r)] }

// Out returns the attribute leaving the element.
func (p *Propagation) Out(r rsn.Ref) secspec.CatSet { return p.out[elemIndex(p.nw, r)] }

// Propagate computes security attributes over all pure scan paths,
// evaluating every element once its sources are final. The network must
// be acyclic (Validate checks it); Propagate panics otherwise.
func Propagate(nw *rsn.Network, spec *secspec.Spec) *Propagation {
	p, ok := newPropagator(spec).full(nw)
	if !ok {
		panic("pure: Propagate on cyclic network")
	}
	return p
}

// propagator evaluates element attributes over a set of elements (the
// cone) in topological order — Kahn's algorithm restricted to the cone,
// reading every source outside it from the propagation being derived
// from. Its scratch buffers are reused across the trials of a resolve
// run.
type propagator struct {
	spec *secspec.Spec
	all  secspec.CatSet
	// mark[e] == epoch flags cone membership for the current run.
	mark  []uint32
	epoch uint32
	indeg []int32
	cone  []int32
	ready []int32
	ins   []int32
	cons  []int32
	// changed lists the elements whose inputs differ from the fanout's
	// wiring, and added their current input edges.
	changed []int32
	added   []edge
}

// edge is one connection from element src to element dst.
type edge struct{ src, dst int32 }

func newPropagator(spec *secspec.Spec) *propagator {
	return &propagator{spec: spec, all: secspec.AllCats(spec.NumCategories)}
}

// newFanout builds nw's element fanout: row e lists, with
// multiplicity, the elements fed by element e.
func newFanout(nw *rsn.Network) graph.CSR {
	n := numElems(nw)
	var ins []int32
	return graph.NewCSR(n, func(add func(src, dst int)) {
		for e := 1; e < n; e++ {
			ins = appendInputs(ins[:0], nw, e)
			for _, s := range ins {
				add(int(s), e)
			}
		}
	})
}

// appendInputs appends the element indices feeding element e; an
// unconnected input contributes no constraint and no index.
func appendInputs(dst []int32, nw *rsn.Network, e int) []int32 {
	nr := len(nw.Registers)
	var srcs []rsn.Ref
	switch {
	case e == scanInElem:
		return dst
	case e == scanOutElem:
		srcs = []rsn.Ref{nw.OutSrc}
	case e < 2+nr:
		srcs = []rsn.Ref{nw.Registers[e-2].In}
	default:
		srcs = nw.Muxes[e-2-nr].Inputs
	}
	for _, src := range srcs {
		if src != rsn.NoRef && src.IsValid() {
			dst = append(dst, int32(elemIndex(nw, src)))
		}
	}
	return dst
}

// setChanged records the elements whose inputs differ between nw and
// the wiring the fanout passed to consumers was built from.
func (q *propagator) setChanged(nw *rsn.Network, changed []int32) {
	q.changed, q.added = changed, q.added[:0]
	for _, c := range changed {
		q.ins = appendInputs(q.ins[:0], nw, int(c))
		for _, s := range q.ins {
			q.added = append(q.added, edge{s, c})
		}
	}
}

// consumers returns the elements fed by element e under nw's wiring:
// fan's row without the changed elements, plus the changed elements
// that now read e.
func (q *propagator) consumers(fan *graph.CSR, e int32) []int32 {
	q.cons = q.cons[:0]
	if int(e) < fan.Len() {
		for _, d := range fan.Row(int(e)) {
			if !slices.Contains(q.changed, d) {
				q.cons = append(q.cons, d)
			}
		}
	}
	for _, a := range q.added {
		if a.src == e {
			q.cons = append(q.cons, a.dst)
		}
	}
	return q.cons
}

// reset sizes the scratch for n elements and starts a new cone.
func (q *propagator) reset(n int) {
	if len(q.mark) < n {
		// Slack for the muxes later rounds insert.
		q.mark = make([]uint32, n+n/4+8)
		q.indeg = make([]int32, len(q.mark))
		q.epoch = 0
	}
	q.epoch++
	q.cone = q.cone[:0]
}

// add puts element e into the cone.
func (q *propagator) add(e int32) {
	if q.mark[e] != q.epoch {
		q.mark[e] = q.epoch
		q.cone = append(q.cone, e)
	}
}

// eval re-evaluates the cone's elements into p in topological order of
// nw's wiring. It reports false, leaving p partially evaluated, when the
// cone contains a cycle.
func (q *propagator) eval(p *Propagation, nw *rsn.Network, fan *graph.CSR) bool {
	for _, e := range q.cone {
		n := int32(0)
		q.ins = appendInputs(q.ins[:0], nw, int(e))
		for _, s := range q.ins {
			if q.mark[s] == q.epoch {
				n++
			}
		}
		q.indeg[e] = n
	}
	q.ready = q.ready[:0]
	for _, e := range q.cone {
		if q.indeg[e] == 0 {
			q.ready = append(q.ready, e)
		}
	}
	nr := len(nw.Registers)
	for head := 0; head < len(q.ready); head++ {
		e := int(q.ready[head])
		in := q.all
		q.ins = appendInputs(q.ins[:0], nw, e)
		for _, s := range q.ins {
			in &= p.out[s]
		}
		p.in[e] = in
		p.out[e] = in
		if e >= 2 && e < 2+nr {
			p.out[e] = in & q.spec.Accepts[nw.Registers[e-2].Module]
		}
		for _, d := range q.consumers(fan, int32(e)) {
			if q.mark[d] == q.epoch {
				if q.indeg[d]--; q.indeg[d] == 0 {
					q.ready = append(q.ready, d)
				}
			}
		}
	}
	return len(q.ready) == len(q.cone)
}

// violates reports whether register r's trust category is missing from
// its incoming attribute in p.
func (q *propagator) violates(p *Propagation, nw *rsn.Network, r int) bool {
	return !p.in[2+r].Has(q.spec.Trust[nw.Registers[r].Module])
}

// setViolating fills p.Violating from p's attributes.
func (q *propagator) setViolating(p *Propagation) {
	p.Violating = p.Violating[:0]
	for r := range p.nw.Registers {
		if q.violates(p, p.nw, r) {
			p.Violating = append(p.Violating, r)
		}
	}
}

// full propagates nw from scratch, every element being in the cone. It
// reports false if nw is cyclic.
func (q *propagator) full(nw *rsn.Network) (*Propagation, bool) {
	n := numElems(nw)
	p := &Propagation{nw: nw, in: make([]secspec.CatSet, n), out: make([]secspec.CatSet, n)}
	q.reset(n)
	for e := 0; e < n; e++ {
		q.add(int32(e))
	}
	f := newFanout(nw)
	q.setChanged(nw, nil)
	if !q.eval(p, nw, &f) {
		return nil, false
	}
	q.setViolating(p)
	return p, true
}

// derive propagates nw after the rewiring rw from p, the propagation of
// nw's wiring before rw, whose fanout is fan: only the elements whose
// inputs rw changed and everything downstream of them are re-evaluated.
// Since the scan network is acyclic the attributes are the unique
// solution of the element equations, so elements outside the dirty
// cone keep p's values exactly. It returns the rewired propagation
// (without its Violating list) and its number of violating registers,
// or ok=false if the rewired wiring is cyclic.
func (q *propagator) derive(p *Propagation, fan *graph.CSR, nw *rsn.Network, rw rsn.Rewiring) (tp *Propagation, violating int, ok bool) {
	var changed []int32
	for _, e := range rw.Elems(nw) {
		changed = append(changed, int32(elemIndex(nw, e)))
	}
	q.setChanged(nw, changed)
	n := numElems(nw)
	tp = &Propagation{nw: nw, in: make([]secspec.CatSet, n), out: make([]secspec.CatSet, n)}
	copy(tp.in, p.in)
	copy(tp.out, p.out)
	q.reset(n)
	for _, c := range changed {
		q.add(c)
	}
	for head := 0; head < len(q.cone); head++ {
		for _, d := range q.consumers(fan, q.cone[head]) {
			q.add(d)
		}
	}
	if !q.eval(tp, nw, fan) {
		return nil, 0, false
	}
	violating = len(p.Violating)
	nr := len(nw.Registers)
	for _, e := range q.cone {
		if r := int(e) - 2; r >= 0 && r < nr {
			if q.violates(p, nw, r) {
				violating--
			}
			if q.violates(tp, nw, r) {
				violating++
			}
		}
	}
	return tp, violating, true
}

// ViolatingRegisters returns the registers with a pure-path violation,
// ascending.
func ViolatingRegisters(nw *rsn.Network, spec *secspec.Spec) []int {
	return Propagate(nw, spec).Violating
}

// FindCulprit returns a register upstream of y whose data must not
// traverse y, if any.
func FindCulprit(nw *rsn.Network, spec *secspec.Spec, y int) (int, bool) {
	ymod := nw.Registers[y].Module
	for _, x := range nw.PurePredecessors(y) {
		if spec.Violates(nw.Registers[x].Module, ymod) {
			return x, true
		}
	}
	return 0, false
}

// Result summarizes a resolution run.
type Result struct {
	Changes []rsn.Change
	// ViolatingBefore is the number of violating registers before any
	// change was applied.
	ViolatingBefore int
}

// maxRounds bounds the resolve loop; beyond it only the provably
// terminating scan-in fallback candidate is used.
func maxRounds(nw *rsn.Network) int { return 4*len(nw.Registers) + 16 }

// Resolve repeatedly finds and repairs pure-path violations until the
// network is pure-path secure. It mutates nw and returns the applied
// changes. The network is propagated once up front; every candidate
// trial is then scored by re-evaluating only the dirty cone downstream
// of its changed connections, and the winning trial's propagation
// becomes the next round's current one (rsn.ApplyBest applies the
// winner with the same Rewire its trial used). opts' context is checked
// every round, and the stage "pure-resolve" is reported through opts'
// stats and tracer.
func Resolve(nw *rsn.Network, spec *secspec.Spec, opts engine.Options) (*Result, error) {
	stage := opts.Begin("pure-resolve")
	defer stage.End()
	res := &Result{}
	defer func() {
		stage.SetAttrs(obs.Int("violations_before", int64(res.ViolatingBefore)),
			obs.Int("changes", int64(len(res.Changes))))
	}()
	q := newPropagator(spec)
	p, ok := q.full(nw)
	if !ok {
		return res, fmt.Errorf("pure: scan network %q is cyclic", nw.Name)
	}
	res.ViolatingBefore = len(p.Violating)
	for round := 0; ; round++ {
		if err := opts.Err(); err != nil {
			return res, err
		}
		if len(p.Violating) == 0 {
			return res, nil
		}
		y := p.Violating[0]
		x, ok := FindCulprit(nw, spec, y)
		if !ok {
			return res, fmt.Errorf("pure: register R%d violates but no culprit found", y)
		}
		ch, next, err := q.resolveOne(nw, p, x, y, round >= maxRounds(nw))
		if err != nil {
			return res, err
		}
		res.Changes = append(res.Changes, ch)
		p = next
	}
}

// pureScore is one accepted trial: its structural cost, the number of
// violating registers after it and its propagation.
type pureScore struct {
	cost, after int
	tp          *Propagation
}

// resolveOne repairs the flow from register x into register y by
// cutting y's input and re-connecting the separated segments. p is the
// current wiring's propagation; the returned one is the propagation of
// the applied change's wiring. With fallbackOnly set, only the
// always-valid candidate (connect y to the scan-in port) is considered.
func (q *propagator) resolveOne(nw *rsn.Network, p *Propagation, x, y int, fallbackOnly bool) (rsn.Change, *Propagation, error) {
	// Every predecessor of a deep chain position would cost a trial
	// each, so the predecessor candidates are capped.
	limit := 6
	if fallbackOnly {
		limit = 0
	}
	trust := q.spec.Trust[nw.Registers[y].Module]
	cands := nw.AppendCandidates(nil, y, nw.Registers[y].In, limit, func(pr int) bool {
		return p.Out(rsn.Reg(pr)).Has(trust)
	})
	// Trials are scored against the round's fanout. They run on nw
	// alone (one worker): the propagator's scratch is per stage.
	before := len(p.Violating)
	fan := newFanout(nw)
	trial := func(net *rsn.Network, rw rsn.Rewiring) (pureScore, bool) {
		tp, after, ok := q.derive(p, &fan, net, rw)
		// A cyclic wiring is no scan network. Otherwise the targeted
		// violation must be gone, or x no longer reach y, and the
		// overall number of violating registers must not grow.
		if !ok || (q.violates(tp, net, y) && net.PureReaches(rsn.Reg(x), rsn.Reg(y))) || after > before {
			return pureScore{}, false
		}
		return pureScore{1 + len(net.Muxes) - rw.Muxes, after, tp}, true
	}
	ch, best, ok := rsn.ApplyBest(nw, cands, 1, trial, func(s, t pureScore) bool {
		return s.cost < t.cost || (s.cost == t.cost && s.after < t.after)
	})
	if !ok {
		// The fallback candidate cannot fail validation; reaching this
		// point indicates an internal inconsistency.
		return rsn.Change{}, nil, fmt.Errorf("pure: no valid candidate to separate R%d from R%d", x, y)
	}
	q.setViolating(best.tp)
	return ch, best.tp, nil
}
