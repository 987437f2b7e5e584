package hybrid

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// This file keeps the chaotic worklist as the differential reference
// of the propagation engine: every active node starts at top and is
// re-evaluated until nothing changes, over the full-preset pathIn —
// not the preset-chain adjacency the engine walks — and the dirty-cone
// delta that resets a trial's forward closure to top and re-runs the
// worklist from it.

// refGraph is the full-preset path relation the reference walks:
// pathIn and its transpose.
type refGraph struct {
	a       *Analysis
	pathOut graph.CSR
}

func newRefGraph(a *Analysis) *refGraph { return &refGraph{a, a.pathIn.Transpose()} }

// runWorklist drives the monotone-decreasing attribute iteration to its
// fixed point from the given seed queue, re-evaluating nodes whose
// inputs changed. It returns the number of node evaluations; inQueue
// is all false again on return.
func (g *refGraph) runWorklist(nw *rsn.Network, w *wiring, p *propagation, queue []int32, inQueue []bool) int64 {
	a := g.a
	all := secspec.AllCats(a.Spec.NumCategories)
	evals := int64(0)
	for head := 0; head < len(queue); head++ {
		n := int(queue[head])
		inQueue[n] = false
		evals++

		in := all
		var out secspec.CatSet
		if n >= a.total {
			// Transparent mux node: intersection of its inputs.
			for _, ref := range nw.Muxes[n-a.total].Inputs {
				if s := a.srcIdx(ref); s >= 0 {
					in &= p.attrOut[s]
				}
			}
			out = in
		} else {
			for _, u := range a.pathIn.Row(n) {
				if a.Denoted[u] {
					in &= p.attrOut[u]
				}
			}
			if r := a.headReg[n]; r >= 0 {
				if s := a.srcIdx(nw.Registers[r].In); s >= 0 {
					in &= p.attrOut[s]
				}
			}
			out = in & a.Spec.Accepts[a.nodeModule[n]]
		}
		p.attrIn[n] = in
		if out == p.attrOut[n] {
			continue
		}
		p.attrOut[n] = out
		// Re-evaluate everything fed by n. Path edges end at combined
		// indices, active when denoted; wiring sinks may be muxes.
		if n < a.total {
			for _, d := range g.pathOut.Row(n) {
				if a.Denoted[d] && !inQueue[d] {
					inQueue[d] = true
					queue = append(queue, d)
				}
			}
		}
		for _, d := range w.sinks(n) {
			if a.active(int(d)) && !inQueue[d] {
				inQueue[d] = true
				queue = append(queue, d)
			}
		}
	}
	return evals
}

// propagate is the reference fixed point: all active nodes at top seed
// the worklist.
func (g *refGraph) propagate(nw *rsn.Network) *propagation {
	a := g.a
	all := secspec.AllCats(a.Spec.NumCategories)
	size := a.total + len(nw.Muxes)
	p := &propagation{
		attrIn:  make([]secspec.CatSet, size),
		attrOut: make([]secspec.CatSet, size),
	}
	inQueue := make([]bool, size)
	var queue []int32
	for n := 0; n < size; n++ {
		p.attrIn[n], p.attrOut[n] = all, all
		if n < a.total {
			p.attrOut[n] = all & a.Spec.Accepts[a.nodeModule[n]]
		}
		if a.active(n) {
			queue = append(queue, int32(n))
			inQueue[n] = true
		}
	}
	g.runWorklist(nw, a.buildWiring(nw), p, queue, inQueue)
	return p
}

// deltaOn is the reference delta: the dirty cone of the seeds — their
// forward closure over nw's edges — is reset to top and re-propagated
// from the parent fixed point. It returns the new fixed point and the
// change in the number of violating nodes.
func (g *refGraph) deltaOn(parent *propagation, w *wiring, nw *rsn.Network, seeds []int32) (*propagation, int) {
	a := g.a
	all := secspec.AllCats(a.Spec.NumCategories)
	size := a.total + len(nw.Muxes)
	p := a.materialise(&propagation{}, parent, nil, &attrDiff{}, size, nil)
	inQueue := make([]bool, size)
	var cone []int32
	for _, s := range seeds {
		if int(s) < size && a.active(int(s)) && !inQueue[s] {
			inQueue[s] = true
			cone = append(cone, s)
		}
	}
	for head := 0; head < len(cone); head++ {
		n := int(cone[head])
		if n < a.total {
			for _, d := range g.pathOut.Row(n) {
				if a.Denoted[d] && !inQueue[d] {
					inQueue[d] = true
					cone = append(cone, d)
				}
			}
		}
		for _, d := range w.sinks(n) {
			if a.active(int(d)) && !inQueue[d] {
				inQueue[d] = true
				cone = append(cone, d)
			}
		}
	}
	dv := 0
	for _, n := range cone {
		if int(n) < a.total && a.violates(p, int(n)) {
			dv--
		}
		p.attrIn[n], p.attrOut[n] = all, all
		if int(n) < a.total {
			p.attrOut[n] = all & a.Spec.Accepts[a.nodeModule[n]]
		}
	}
	g.runWorklist(nw, w, p, slices.Clone(cone), inQueue)
	for _, n := range cone {
		if int(n) < a.total && a.violates(p, int(n)) {
			dv++
		}
	}
	return p, dv
}

// violates reports whether the active combined index n lacks its own
// module's trust category in the propagation's incoming attribute.
func (a *Analysis) violates(p *propagation, n int) bool {
	return !p.attrIn[n].Has(a.Spec.Trust[a.nodeModule[n]])
}

// levelsOf returns the BFS witness levels of p under nw's wiring.
func levelsOf(a *Analysis, p *propagation, nw *rsn.Network) []int32 {
	lv := make([]int32, len(p.attrOut)*a.ncat())
	a.levelBFS(nw, a.buildWiring(nw), make([]secspec.CatSet, len(p.attrOut)), lv, &bfsScratch{})
	return lv
}

// checkLevels asserts the witness invariant of levels lv of p under
// nw's wiring: every category missing from an active node's outgoing
// attribute is at level 0 when the node blocks it and otherwise has an
// input missing it at a strictly lower level.
func checkLevels(tb testing.TB, ctx string, a *Analysis, nw *rsn.Network, p *propagation, lv []int32) {
	tb.Helper()
	k := a.ncat()
	all := secspec.AllCats(a.Spec.NumCategories)
	for n := range p.attrOut {
		if !a.active(n) {
			continue
		}
		for c := 0; c < k; c++ {
			if p.attrOut[n].Has(secspec.Category(c)) || all&(1<<c) == 0 {
				continue
			}
			l := lv[n*k+c]
			if a.blocks(n).Has(secspec.Category(c)) {
				if l != 0 {
					tb.Fatalf("%s: blocker %d has level %d for category %d", ctx, n, l, c)
				}
				continue
			}
			ok := false
			a.forInputs(nw, n, func(u int32) {
				ok = ok || (!p.attrOut[u].Has(secspec.Category(c)) && lv[int(u)*k+c] < l)
			})
			if !ok {
				tb.Fatalf("%s: node %d misses category %d at level %d without a witness", ctx, n, c, l)
			}
		}
	}
}

// randomAnalysis builds an analysis over nw by hand: nCirc circuit
// flip-flops, a random cyclic path relation over the combined index
// space with every register's full preset chain, random non-denoted
// circuit flip-flops and last scan flip-flops of registers — which
// feed wiring, and which no chain runs through — and a random
// specification over ncat categories.
func randomAnalysis(rng *rand.Rand, nw *rsn.Network, nCirc, ncat int) *Analysis {
	circuit := netlist.New()
	for f := 0; f < nCirc; f++ {
		circuit.AddFF(fmt.Sprintf("f%d", f), rng.Intn(len(nw.Modules)))
	}
	nm := len(nw.Modules)
	spec := secspec.New(nm, ncat)
	all := secspec.AllCats(ncat)
	for m := 0; m < nm; m++ {
		spec.SetTrust(m, secspec.Category(rng.Intn(ncat)))
		acc := secspec.CatSet(rng.Uint32()) & all
		if rng.Intn(3) == 0 {
			acc = all &^ (1 << rng.Intn(ncat))
		}
		spec.SetAccepts(m, acc)
	}
	a := newLayout(nw, circuit, spec, dep.Exact, engine.Options{})
	m := dep.NewPathMatrix(a.total)
	for r := range nw.Registers {
		for j := 1; j < a.regLen[r]; j++ {
			for i := 0; i < j; i++ {
				m.Set(a.regOffset[r]+j, a.regOffset[r]+i, dep.Path)
			}
		}
	}
	for e := rng.Intn(2 * a.total); e > 0; e-- {
		m.Set(rng.Intn(a.total), rng.Intn(a.total), dep.Path)
	}
	a.pathIn = m.PathCSR()
	a.Denoted = make([]bool, a.total)
	for n := range a.Denoted {
		a.Denoted[n] = n >= nCirc || rng.Intn(8) > 0
	}
	for r := range nw.Registers {
		if rng.Intn(5) == 0 {
			a.Denoted[a.lastIndex(r)] = false
		}
	}
	for _, d := range a.Denoted {
		if d {
			a.nDenoted++
		}
	}
	a.buildChain()
	return a
}

// randomRewire applies one random cut/reconnect to nw — a register or
// mux input pin reconnected to another register, a mux or scan-in, which
// may insert muxes — and returns it, or false when the pick was not
// applicable.
func randomRewire(rng *rand.Rand, nw *rsn.Network) (rsn.Rewiring, bool) {
	var pin rsn.Sink
	if len(nw.Muxes) > 0 && rng.Intn(3) == 0 {
		m := rng.Intn(len(nw.Muxes))
		pin = rsn.Sink{Elem: rsn.Mx(m), Idx: rng.Intn(len(nw.Muxes[m].Inputs))}
	} else {
		pin = rsn.Sink{Elem: rsn.Reg(rng.Intn(len(nw.Registers)))}
	}
	src := rsn.ScanIn
	switch rng.Intn(4) {
	case 0, 1:
		src = rsn.Reg(rng.Intn(len(nw.Registers)))
	case 2:
		if len(nw.Muxes) > 0 {
			src = rsn.Mx(rng.Intn(len(nw.Muxes)))
		}
	}
	rw, err := nw.Rewire(pin, src)
	return rw, err == nil
}

// TestPropagateRandomGraphs is the random-graph differential of the
// propagation engine against the reference worklist: random networks
// with hand-built analyses (cyclic path relations, non-denoted nodes
// feeding wiring, 1 to 32 trust categories), random rewirings that
// insert muxes, single-change trials over a patched wiring, and
// multi-change diffs of up to four rewirings — each compared attribute
// for attribute, with the violation delta and the witness levels
// checked.
func TestPropagateRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	trials, multi := 0, 0
	for iter := 0; iter < 300; iter++ {
		nw := bench.RandomNetwork(rng, 3+rng.Intn(10))
		ncat := 1 + iter%32
		a := randomAnalysis(rng, nw, rng.Intn(20), ncat)
		ref := newRefGraph(a)
		ctx := fmt.Sprintf("iter %d (%d categories)", iter, ncat)
		p := a.propagate(nw)
		propEqual(t, ctx+" full", ref.propagate(nw), p)
		lv := p.lv
		checkLevels(t, ctx+" full", a, nw, p, lv)
		for step := 0; step < 6; step++ {
			parent, plv, parentNW := p, lv, nw.Clone()
			pw := a.buildWiring(nw)
			before := len(a.violationsFrom(parent))
			rw, ok := randomRewire(rng, nw)
			if !ok {
				continue
			}
			want := ref.propagate(nw)
			tw, seeds := a.trialWiring(pw, nw, rw)
			var d attrDiff
			dv, _ := a.delta(parent, plv, tw, nw, seeds, 0, &d)
			size := a.total + len(nw.Muxes)
			tlv := make([]int32, size*a.ncat())
			tp := a.materialise(&propagation{}, parent, plv, &d, size, tlv)
			propEqual(t, ctx+" trial", want, tp)
			checkLevels(t, ctx+" trial", a, nw, tp, tlv)
			if wdv := len(a.violationsFrom(want)) - before; dv != wdv {
				t.Fatalf("%s trial: violation delta %d, want %d", ctx, dv, wdv)
			}
			trials++
			// Undo the change half the time. Otherwise keep it, with its
			// repaired levels as the next trial's, or add up to three
			// more and let one delta from parentNW cover them all.
			if rng.Intn(2) == 0 {
				nw.Undo(rw)
				continue
			}
			p, lv = tp, tlv
			if extra := rng.Intn(4); extra > 0 {
				for ; extra > 0; extra-- {
					randomRewire(rng, nw)
				}
				q := a.propagateDelta(parent, parentNW, nw)
				propEqual(t, ctx+" delta", ref.propagate(nw), q)
				checkLevels(t, ctx+" delta", a, nw, q, q.lv)
				p, lv = q, q.lv
				multi++
			}
		}
	}
	if trials < 1000 || multi < 200 {
		t.Fatalf("only %d trials and %d multi-change deltas compared", trials, multi)
	}
	t.Logf("%d trials, %d multi-change deltas", trials, multi)
}

// TestChainMatchesFullPreset checks that propagating over the
// preset-chain adjacency gives the fixed point and violation list of
// the full-preset path relation: on the Table I protocol (every catalog
// benchmark at about 80 scan flip-flops, two attached circuits, four
// protocol and four role-free specifications), FlexScan at 0.01 and
// 0.1, and the 1000-flip-flop rsngen hierarchy.
func TestChainMatchesFullPreset(t *testing.T) {
	type tcase struct {
		name string
		an   *Analysis
		nw   *rsn.Network
		srcs []bool
	}
	var cases []tcase
	for _, b := range bench.Catalog() {
		nw := b.Build(b.ScaleForTarget(80))
		for seed := int64(1); seed <= 2; seed++ {
			att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
			cases = append(cases, tcase{fmt.Sprintf("%s seed %d", b.Name, seed),
				NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact), nw, att.DataSources})
		}
	}
	fs, _ := bench.ByName("FlexScan")
	for _, scale := range []float64{0.01, 0.1} {
		nw := fs.Build(scale)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 1)
		cases = append(cases, tcase{fmt.Sprintf("FlexScan@%g", scale),
			NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact), nw, att.DataSources})
	}
	nw, att := scaleDesign(t)
	cases = append(cases, tcase{"scale1000", NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact), nw, att.DataSources})
	violating := 0
	for _, c := range cases {
		for i, spec := range protocolSpecs(len(c.nw.Modules), c.srcs, 4, 17) {
			a := c.an.WithSpec(spec)
			ctx := fmt.Sprintf("%s spec %d", c.name, i)
			full, chain := newRefGraph(a).propagate(c.nw), a.propagate(c.nw)
			propEqual(t, ctx, full, chain)
			fv, cv := a.violationsFrom(full), a.violationsFrom(chain)
			if !slices.Equal(fv, cv) {
				t.Fatalf("%s: violations %v on the chain, %v on the full presets", ctx, cv, fv)
			}
			if len(fv) > 0 {
				violating++
			}
		}
	}
	if violating < len(cases) {
		t.Fatalf("only %d of %d×8 specifications violate", violating, len(cases))
	}
}

// TestConcurrentTrialsShareOverlays runs delta trials of one round from
// several goroutines at once, as Resolve's worker pool does: the pooled
// overlays must not leak state between trials.
func TestConcurrentTrialsShareOverlays(t *testing.T) {
	a, nw := catalogCase(t, "TreeFlat", 0.15, 7)
	cur := a.propagate(nw)
	lv := levelsOf(a, cur, nw)
	w := a.buildWiring(nw)
	type job struct {
		pin rsn.Sink
		src rsn.Ref
	}
	var jobs []job
	for r := range nw.Registers {
		for _, src := range []rsn.Ref{rsn.ScanIn, rsn.Reg((r + 1) % len(nw.Registers))} {
			jobs = append(jobs, job{rsn.Sink{Elem: rsn.Reg(r)}, src})
		}
	}
	want := make([]*propagation, len(jobs))
	for i, j := range jobs {
		net := nw.Clone()
		if _, err := net.Rewire(j.pin, j.src); err == nil {
			want[i] = newRefGraph(a).propagate(net)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, j := range jobs {
					net := nw.Clone()
					rw, err := net.Rewire(j.pin, j.src)
					if err != nil {
						continue
					}
					tw, seeds := a.trialWiring(w, net, rw)
					var d attrDiff
					a.delta(cur, lv, tw, net, seeds, 0, &d)
					got := a.materialise(&propagation{}, cur, nil, &d, a.total+len(net.Muxes), nil)
					if !slices.Equal(got.attrIn, want[i].attrIn) || !slices.Equal(got.attrOut, want[i].attrOut) {
						t.Errorf("job %d: concurrent trial differs from the reference", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDeltaStageCounters checks the propagate-delta counters: items
// counts re-evaluated nodes, saved the active nodes not re-evaluated,
// and queries the witness edge visits plus the re-evaluations.
func TestDeltaStageCounters(t *testing.T) {
	a, nw := catalogCase(t, "BasicSCB", 0.15, 7)
	cur := a.propagate(nw)
	lv := levelsOf(a, cur, nw)
	st := engine.NewStats()
	a = a.WithEngine(engine.Options{Stats: st})
	viols := a.violationsFrom(cur)
	_, _, hops, err := a.flowChain(nw, viols[0].Node, new(chainScratch))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := nw.Rewire(rsn.Sink{Elem: rsn.Reg(hops[0].To)}, rsn.ScanIn)
	if err != nil {
		t.Fatal(err)
	}
	tw, seeds := a.trialWiring(a.buildWiring(nw), nw, rw)
	a.delta(cur, lv, tw, nw, seeds, 0, nil)
	s := st.Stage("propagate-delta")
	items, queries, saved := s.Items(), s.Queries(), s.Saved()
	if items <= 0 || queries < items || items+saved != int64(a.activeCount(nw)) {
		t.Fatalf("items %d, queries %d, saved %d over %d active nodes", items, queries, saved, a.activeCount(nw))
	}
}
