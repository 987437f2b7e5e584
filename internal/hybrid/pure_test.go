package hybrid

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// This file keeps the former dirty-cone pure propagator as a second
// reference for the pure stage's register view: attributes in flat
// per-element arrays (the two ports, then the registers, then the
// muxes), evaluated by Kahn's algorithm over a whole acyclic network
// (full) or over the cone downstream of a rewiring's changed elements
// (derive), reading every source outside the cone from the propagation
// being derived from.

// coneProp holds the forward-propagated attributes of one network.
type coneProp struct {
	nw        *rsn.Network
	in, out   []secspec.CatSet
	Violating []int
}

// Element indices of the ports; register r is 2+r, mux m is 2+R+m.
const (
	scanInElem  = 0
	scanOutElem = 1
)

func coneIndex(nw *rsn.Network, r rsn.Ref) int {
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

func coneElems(nw *rsn.Network) int { return 2 + len(nw.Registers) + len(nw.Muxes) }

func (p *coneProp) In(r rsn.Ref) secspec.CatSet  { return p.in[coneIndex(p.nw, r)] }
func (p *coneProp) Out(r rsn.Ref) secspec.CatSet { return p.out[coneIndex(p.nw, r)] }

// cone is the propagator: its scratch is reused across evaluations.
type cone struct {
	spec  *secspec.Spec
	all   secspec.CatSet
	mark  []uint32 // mark[e] == epoch: e is in the current cone
	epoch uint32
	indeg []int32
	elems []int32
	ready []int32
	ins   []int32
	cons  []int32
	// changed lists the elements whose inputs differ from the fanout's
	// wiring, and added their current input edges.
	changed []int32
	added   [][2]int32
}

func newCone(spec *secspec.Spec) *cone {
	return &cone{spec: spec, all: secspec.AllCats(spec.NumCategories)}
}

// coneFanout builds nw's element fanout: row e lists, with
// multiplicity, the elements fed by element e.
func coneFanout(nw *rsn.Network) graph.CSR {
	n := coneElems(nw)
	var ins []int32
	return graph.NewCSR(n, func(add func(src, dst int)) {
		for e := 1; e < n; e++ {
			ins = coneInputs(ins[:0], nw, e)
			for _, s := range ins {
				add(int(s), e)
			}
		}
	})
}

// coneInputs appends the element indices feeding element e; an
// unconnected input contributes no constraint and no index.
func coneInputs(dst []int32, nw *rsn.Network, e int) []int32 {
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
			dst = append(dst, int32(coneIndex(nw, src)))
		}
	}
	return dst
}

// setChanged records the elements whose inputs differ between nw and
// the wiring the fanout was built from.
func (q *cone) setChanged(nw *rsn.Network, changed []int32) {
	q.changed, q.added = changed, q.added[:0]
	for _, c := range changed {
		q.ins = coneInputs(q.ins[:0], nw, int(c))
		for _, s := range q.ins {
			q.added = append(q.added, [2]int32{s, c})
		}
	}
}

// consumers returns the elements fed by element e under nw's wiring:
// fan's row without the changed elements, plus the changed elements
// that now read e.
func (q *cone) consumers(fan *graph.CSR, e int32) []int32 {
	q.cons = q.cons[:0]
	if int(e) < fan.Len() {
		for _, d := range fan.Row(int(e)) {
			if !slices.Contains(q.changed, d) {
				q.cons = append(q.cons, d)
			}
		}
	}
	for _, a := range q.added {
		if a[0] == e {
			q.cons = append(q.cons, a[1])
		}
	}
	return q.cons
}

// reset sizes the scratch for n elements and starts a new cone.
func (q *cone) reset(n int) {
	if len(q.mark) < n {
		q.mark = make([]uint32, n+n/4+8)
		q.indeg = make([]int32, len(q.mark))
		q.epoch = 0
	}
	q.epoch++
	q.elems = q.elems[:0]
}

// add puts element e into the cone.
func (q *cone) add(e int32) {
	if q.mark[e] != q.epoch {
		q.mark[e] = q.epoch
		q.elems = append(q.elems, e)
	}
}

// eval re-evaluates the cone's elements into p in topological order of
// nw's wiring. It reports false when the cone contains a cycle.
func (q *cone) eval(p *coneProp, nw *rsn.Network, fan *graph.CSR) bool {
	for _, e := range q.elems {
		n := int32(0)
		q.ins = coneInputs(q.ins[:0], nw, int(e))
		for _, s := range q.ins {
			if q.mark[s] == q.epoch {
				n++
			}
		}
		q.indeg[e] = n
	}
	q.ready = q.ready[:0]
	for _, e := range q.elems {
		if q.indeg[e] == 0 {
			q.ready = append(q.ready, e)
		}
	}
	nr := len(nw.Registers)
	for head := 0; head < len(q.ready); head++ {
		e := int(q.ready[head])
		in := q.all
		q.ins = coneInputs(q.ins[:0], nw, e)
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
	return len(q.ready) == len(q.elems)
}

// violates reports whether register r's trust category is missing from
// its incoming attribute in p.
func (q *cone) violates(p *coneProp, nw *rsn.Network, r int) bool {
	return !p.in[2+r].Has(q.spec.Trust[nw.Registers[r].Module])
}

// full propagates nw from scratch, every element being in the cone. It
// reports false if nw is cyclic.
func (q *cone) full(nw *rsn.Network) (*coneProp, bool) {
	n := coneElems(nw)
	p := &coneProp{nw: nw, in: make([]secspec.CatSet, n), out: make([]secspec.CatSet, n)}
	q.reset(n)
	for e := 0; e < n; e++ {
		q.add(int32(e))
	}
	f := coneFanout(nw)
	q.setChanged(nw, nil)
	if !q.eval(p, nw, &f) {
		return nil, false
	}
	for r := range nw.Registers {
		if q.violates(p, nw, r) {
			p.Violating = append(p.Violating, r)
		}
	}
	return p, true
}

// derive propagates nw after the rewiring rw from p, the propagation of
// nw's wiring before rw, whose fanout is fan: only the elements whose
// inputs rw changed and everything downstream of them are re-evaluated.
// It returns the rewired propagation (without its Violating list) and
// its number of violating registers, or ok=false if the rewired wiring
// is cyclic.
func (q *cone) derive(p *coneProp, fan *graph.CSR, nw *rsn.Network, rw rsn.Rewiring) (tp *coneProp, violating int, ok bool) {
	var changed []int32
	for _, e := range rw.Elems(nw) {
		changed = append(changed, int32(coneIndex(nw, e)))
	}
	q.setChanged(nw, changed)
	n := coneElems(nw)
	tp = &coneProp{nw: nw, in: make([]secspec.CatSet, n), out: make([]secspec.CatSet, n)}
	copy(tp.in, p.in)
	copy(tp.out, p.out)
	q.reset(n)
	for _, c := range changed {
		q.add(c)
	}
	for head := 0; head < len(q.elems); head++ {
		for _, d := range q.consumers(fan, q.elems[head]) {
			q.add(d)
		}
	}
	if !q.eval(tp, nw, fan) {
		return nil, 0, false
	}
	violating = len(p.Violating)
	nr := len(nw.Registers)
	for _, e := range q.elems {
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

// pureViolating returns the registers with a pure-path violation,
// ascending, from the register view's fixed point.
func pureViolating(nw *rsn.Network, spec *secspec.Spec) []int {
	a := newRegisterView(nw, spec)
	var out []int
	for _, v := range a.violationsFrom(a.propagate(nw)) {
		out = append(out, v.Node)
	}
	return out
}

// viewMatchesCone fails unless the register view's fixed point p of nw
// equals the reference propagation ref element for element: incoming
// and outgoing attributes of every register and mux.
func viewMatchesCone(t *testing.T, ctx string, a *Analysis, nw *rsn.Network, p *propagation, ref *coneProp) {
	t.Helper()
	if len(p.attrIn) != len(nw.Registers)+len(nw.Muxes) {
		t.Fatalf("%s: %d view nodes for %d registers and %d muxes", ctx, len(p.attrIn), len(nw.Registers), len(nw.Muxes))
	}
	for n := range p.attrIn {
		e := rsn.Reg(n)
		if n >= a.total {
			e = rsn.Mx(n - a.total)
		}
		if p.attrIn[n] != ref.In(e) || p.attrOut[n] != ref.Out(e) {
			t.Fatalf("%s: %v attributes %v/%v, reference %v/%v", ctx, e, p.attrIn[n], p.attrOut[n], ref.In(e), ref.Out(e))
		}
	}
}

// TestPureViewRepairMatchesReference checks every candidate rewiring
// of random networks' violating registers — each register re-fed from
// the scan-in port and from every pure-path predecessor — on the
// register view: the repaired fixed point must equal the reference's
// full propagation element for element and the dirty-cone derivation
// from the round's propagation, the violating count and the target's
// incoming attribute must match, and the repaired witness levels must
// be valid; undoing the rewiring must restore the wiring.
func TestPureViewRepairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials := 0
	for iter := 0; iter < 300; iter++ {
		nw := bench.RandomNetwork(rng, 4+rng.Intn(10))
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), rng.Int63())
		a := newRegisterView(nw, spec)
		cur := a.propagate(nw)
		q := newCone(spec)
		p, ok := q.full(nw)
		if !ok {
			t.Fatalf("iter %d: generated network is cyclic", iter)
		}
		viewMatchesCone(t, "initial", a, nw, cur, p)
		if got := len(a.violationsFrom(cur)); got != len(p.Violating) {
			t.Fatalf("iter %d: %d violating, reference %d", iter, got, len(p.Violating))
		}
		fan := coneFanout(nw)
		w := a.buildWiring(nw)
		for _, y := range p.Violating {
			srcs := []rsn.Ref{rsn.ScanIn}
			for _, pr := range nw.PurePredecessors(y, new(rsn.Marks)) {
				srcs = append(srcs, rsn.Reg(pr))
			}
			for _, src := range srcs {
				orig := nw.Clone()
				rw, err := nw.Rewire(rsn.Sink{Elem: rsn.Reg(y)}, src)
				if err != nil {
					continue
				}
				tw, seeds := a.trialWiring(w, nw, rw)
				var d attrDiff
				dv, in := a.delta(cur, cur.lv, tw, nw, seeds, y, &d)
				size := a.total + len(nw.Muxes)
				tp := a.materialise(&propagation{}, cur, cur.lv, &d, size, make([]int32, size*a.ncat()))
				ref, ok := newCone(spec).full(nw)
				if !ok {
					t.Fatalf("iter %d: candidate %v <- %v is cyclic", iter, rsn.Reg(y), src)
				}
				viewMatchesCone(t, "trial", a, nw, tp, ref)
				if len(p.Violating)+dv != len(ref.Violating) {
					t.Fatalf("iter %d: %d violating after the trial, reference %d", iter, len(p.Violating)+dv, len(ref.Violating))
				}
				if in != ref.In(rsn.Reg(y)) {
					t.Fatalf("iter %d: target R%d incoming %v, reference %v", iter, y, in, ref.In(rsn.Reg(y)))
				}
				checkLevels(t, "trial", a, nw, tp, tp.lv)
				dp, after, ok := q.derive(p, &fan, nw, rw)
				if !ok || after != len(ref.Violating) {
					t.Fatalf("iter %d: derive ok=%v with %d violating, reference %d", iter, ok, after, len(ref.Violating))
				}
				for e := range ref.in {
					if dp.in[e] != ref.in[e] || dp.out[e] != ref.out[e] {
						t.Fatalf("iter %d: derive differs from full propagation at element %d", iter, e)
					}
				}
				nw.Undo(rw)
				if len(nw.ChangedInputs(orig)) != 0 || len(nw.Muxes) != len(orig.Muxes) {
					t.Fatalf("iter %d: Undo did not restore the wiring", iter)
				}
				trials++
			}
		}
	}
	if trials == 0 {
		t.Fatal("no trials compared")
	}
	t.Logf("%d trials compared", trials)
}

// pureChain builds SI -> A(crypto) -> B(untrusted) -> C(plain) -> SO and
// a spec where crypto data must not traverse untrusted segments.
func pureChain() (*rsn.Network, *secspec.Spec) {
	nw := rsn.New("chain")
	crypto := nw.AddModule("crypto")
	untrusted := nw.AddModule("untrusted")
	plain := nw.AddModule("plain")
	a := nw.AddRegister("A", 2, crypto)
	b := nw.AddRegister("B", 2, untrusted)
	c := nw.AddRegister("C", 2, plain)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(b, rsn.Reg(a))
	nw.Connect(c, rsn.Reg(b))
	nw.ConnectOut(rsn.Reg(c))
	spec := secspec.New(3, 4)
	spec.SetTrust(crypto, 3)
	spec.SetAccepts(crypto, secspec.NewCatSet(2, 3))
	spec.SetTrust(untrusted, 0)
	spec.SetAccepts(untrusted, secspec.AllCats(4))
	spec.SetTrust(plain, 2)
	spec.SetAccepts(plain, secspec.AllCats(4))
	return nw, spec
}

// TestCyclicTrialRejected checks the pure stage's handling of cycles on
// the register view: the witness repair of a trial wiring that closes a
// cycle terminates at the greatest fixed point of that wiring; a cyclic
// candidate, however it scores, is never applied, since ApplyBest
// validates its winner; and a cyclic input network is refused with the
// pure stage's error while a network invalid only in other ways is not.
func TestCyclicTrialRejected(t *testing.T) {
	nw, spec := pureChain()
	a := newRegisterView(nw, spec)
	cur := a.propagate(nw)
	// A <- C closes the cycle A -> B -> C -> A.
	rw, err := nw.Rewire(rsn.Sink{Elem: rsn.Reg(0)}, rsn.Reg(2))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Validate() == nil {
		t.Fatal("trial wiring should be cyclic")
	}
	tw, seeds := a.trialWiring(a.buildWiring(nw), nw, rw)
	var d attrDiff
	a.delta(cur, cur.lv, tw, nw, seeds, 0, &d)
	size := a.total + len(nw.Muxes)
	propEqual(t, "cyclic trial", a.propagate(nw), a.materialise(&propagation{}, cur, nil, &d, size, nil))
	nw.Undo(rw)

	// The cyclic candidate scores best; the valid one is applied.
	cands := []rsn.Candidate{{Pin: rsn.Sink{Elem: rsn.Reg(0)}, NewSrc: rsn.Reg(2)}, {Pin: rsn.Sink{Elem: rsn.Reg(1)}, NewSrc: rsn.ScanIn}}
	w := a.buildWiring(nw)
	trial := func(net *rsn.Network, rw rsn.Rewiring) (int, bool) {
		tw, seeds := a.trialWiring(w, net, rw)
		dv, _ := a.delta(cur, cur.lv, tw, net, seeds, 1, nil)
		return dv, true
	}
	for _, workers := range []int{1, 2} {
		run := nw.Clone()
		ch, _, ok := rsn.ApplyBest(run, cands, workers, trial, func(s, t int) bool { return s < t })
		if !ok || ch.Cut.Elem != rsn.Reg(1) || run.Validate() != nil {
			t.Fatalf("workers %d: applied %v (ok %v), want the valid candidate", workers, ch, ok)
		}
	}

	// A cyclic input network is refused.
	cyc := nw.Clone()
	if _, err := cyc.Rewire(rsn.Sink{Elem: rsn.Reg(0)}, rsn.Reg(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolvePure(cyc, spec, engine.Options{}); err == nil || err.Error() != `pure: scan network "chain" is cyclic` {
		t.Fatalf("cyclic network: err = %v", err)
	}
	self := nw.Clone()
	self.Connect(1, rsn.Reg(1))
	if _, err := ResolvePure(self, spec, engine.Options{}); err == nil || err.Error() != `pure: scan network "chain" is cyclic` {
		t.Fatalf("self-loop: err = %v", err)
	}
	// A network that is invalid but acyclic — C unconnected — is
	// resolved as before: nothing to do under a spec it meets, and no
	// candidate passes validation under one it violates.
	open := nw.Clone()
	open.Connect(2, rsn.NoRef)
	if open.Validate() == nil {
		t.Fatal("network with an unconnected input should be invalid")
	}
	loose := secspec.New(3, 4)
	for m := range 3 {
		loose.SetTrust(m, 0)
		loose.SetAccepts(m, secspec.AllCats(4))
	}
	if res, err := ResolvePure(open.Clone(), loose, engine.Options{}); err != nil || len(res.Changes) != 0 {
		t.Fatalf("invalid network without violations: %+v, err %v", res, err)
	}
	if _, err := ResolvePure(open, spec, engine.Options{}); err == nil || err.Error() != "pure: no valid candidate to separate R0 from R1" {
		t.Fatalf("invalid network with a violation: err = %v", err)
	}
}
