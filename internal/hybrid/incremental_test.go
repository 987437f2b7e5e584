package hybrid

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// catalogCase reconstructs a scaled catalog benchmark with an attached
// circuit and a generated specification that produces hybrid
// violations (searching a few spec seeds), the same structures the
// experimental protocol runs on.
func catalogCase(tb testing.TB, name string, scale float64, seed int64) (*Analysis, *rsn.Network) {
	tb.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	nw := b.Build(scale)
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
	for specSeed := int64(0); specSeed < 24; specSeed++ {
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), specSeed)
		a := NewAnalysis(nw, att.Circuit, att.Internal, spec, dep.Exact)
		if len(a.InsecureModulePairs()) > 0 {
			continue
		}
		if len(a.violationsFrom(a.propagate(nw))) > 0 {
			return a, nw
		}
	}
	tb.Fatalf("%s: no spec seed with resolvable violations found", name)
	return nil, nil
}

// propEqual compares two propagations attribute for attribute.
func propEqual(tb testing.TB, ctx string, full, delta *propagation) {
	tb.Helper()
	if len(full.attrIn) != len(delta.attrIn) {
		tb.Fatalf("%s: node counts differ: %d vs %d", ctx, len(full.attrIn), len(delta.attrIn))
	}
	for n := range full.attrIn {
		if full.attrIn[n] != delta.attrIn[n] {
			tb.Fatalf("%s: attrIn[%d] = %v incremental, %v full", ctx, n, delta.attrIn[n], full.attrIn[n])
		}
		if full.attrOut[n] != delta.attrOut[n] {
			tb.Fatalf("%s: attrOut[%d] = %v incremental, %v full", ctx, n, delta.attrOut[n], full.attrOut[n])
		}
	}
}

// flexScanSeeds are the circuit-attachment seeds of the flexscan-shaped
// differential cases.
var flexScanSeeds = []int64{1, 2, 3, 4}

// scaleDesign builds a 1000-flip-flop rsngen SIB hierarchy and attaches
// a circuit to it, as perfbench's scale workload does.
func scaleDesign(tb testing.TB) (*rsn.Network, *bench.Attachment) {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := bench.StreamScaleICL(&buf, nil, bench.ScaleGenConfig{TargetScanFFs: 1000, Seed: 3}); err != nil {
		tb.Fatal(err)
	}
	nw, err := icl.ParseNetwork(buf.String(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return nw, bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 3)
}

// scaleCase builds a 1000-flip-flop rsngen SIB hierarchy with an
// attached circuit and a protocol-style specification (confidential
// annotations on the circuit's data sources) that produces hybrid
// violations and no insecure circuit logic.
func scaleCase(tb testing.TB) (*Analysis, *rsn.Network) {
	tb.Helper()
	nw, att := scaleDesign(tb)
	an := NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact)
	for specSeed := int64(0); specSeed < 32; specSeed++ {
		a := an.WithSpec(secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), specSeed))
		if len(a.InsecureModulePairs()) == 0 && len(a.violationsFrom(a.propagate(nw))) > 0 {
			return a, nw
		}
	}
	tb.Fatal("scale network: no spec seed with resolvable violations found")
	return nil, nil
}

// flexScanCase builds a design of perfbench's flexscan workload:
// FlexScan at scale 0.01 with a circuit attached under the given seed
// and a protocol-style specification, pure-resolved as the pipeline
// does before the hybrid stage, with hybrid violations left over.
func flexScanCase(tb testing.TB, seed int64) (*Analysis, *rsn.Network) {
	tb.Helper()
	b, ok := bench.ByName("FlexScan")
	if !ok {
		tb.Fatal("FlexScan not in catalog")
	}
	nw := b.Build(0.01)
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
	an := NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact)
	for specSeed := int64(0); specSeed < 32; specSeed++ {
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), specSeed)
		a := an.WithSpec(spec)
		if len(a.InsecureModulePairs()) > 0 {
			continue
		}
		run := nw.Clone()
		if _, err := ResolvePure(run, spec, engine.Options{}); err != nil {
			tb.Fatal(err)
		}
		if len(a.violationsFrom(a.propagate(run))) > 0 {
			return a, run
		}
	}
	tb.Fatalf("FlexScan seed %d: no spec seed with hybrid violations found", seed)
	return nil, nil
}

// checkAdjacency asserts that pathIn holds the path edges of the
// census's two-relation bridge row for row, that chainIn is those rows
// restricted to denoted nodes without the intra-register edges bit i ->
// bit j (i < j-1), computed here from the census, that chainOut is its
// transpose, and that headReg maps exactly each register's bit 0.
func checkAdjacency(t *testing.T, a *Analysis, nw *rsn.Network) {
	t.Helper()
	base := censusOf(t, a, nw).Base
	chain := make([][]int32, a.total)
	dependents := make([][]int32, a.total)
	for j := 0; j < a.total; j++ {
		r, bit, scan := a.IsScanNode(j)
		base.PathDependsOn(j).ForEach(func(i int) {
			if ri, bi, ok := a.IsScanNode(i); scan && ok && ri == r && bi < bit-1 {
				return
			}
			if a.Denoted[i] && a.Denoted[j] {
				chain[j] = append(chain[j], int32(i))
				dependents[i] = append(dependents[i], int32(j))
			}
		})
	}
	for n := 0; n < a.total; n++ {
		var in []int32
		base.PathDependsOn(n).ForEach(func(j int) { in = append(in, int32(j)) })
		for _, c := range []struct {
			name      string
			row, want []int32
		}{
			{"pathIn", a.pathIn.Row(n), in},
			{"chainIn", a.chainIn.Row(n), chain[n]},
			{"chainOut", a.chainOut.Row(n), dependents[n]},
		} {
			if !slices.Equal(c.row, c.want) {
				t.Fatalf("%s row %d = %v, census has %v", c.name, n, c.row, c.want)
			}
		}
		r, bit, ok := a.IsScanNode(n)
		if want := int32(-1); ok && bit == 0 {
			want = int32(r)
			if a.headReg[n] != want {
				t.Fatalf("headReg[%d] = %d, want %d", n, a.headReg[n], want)
			}
		} else if a.headReg[n] != want {
			t.Fatalf("headReg[%d] = %d, want -1", n, a.headReg[n])
		}
	}
}

// wiringEqual compares a (possibly patched) wiring with a freshly built
// one over every node of nw's wiring.
func wiringEqual(tb testing.TB, a *Analysis, nw *rsn.Network, got *wiring) {
	tb.Helper()
	want := a.buildWiring(nw)
	for n := 0; n < a.total+len(nw.Muxes); n++ {
		if g, w := got.sinks(n), want.sinks(n); !slices.Equal(g, w) {
			tb.Fatalf("wiring row %d = %v, buildWiring has %v", n, g, w)
		}
	}
}

// TestIncrementalPropagateMatchesFull is the differential check of the
// propagation engine: it drives the resolve loop over catalog
// benchmarks, a 1000-flip-flop rsngen hierarchy with an attached
// circuit and pure-resolved FlexScan designs of perfbench's flexscan
// shape and, at every iteration, evaluates EVERY candidate
// cut/reconnect change — all compatible pure-path predecessors of each
// wiring hop, uncapped, plus the scan-in fallback — comparing against
// the reference chaotic worklist over the full-preset pathIn, attribute
// for attribute: the level BFS of the full propagation, the
// candidate-trial path (the change applied in place, the round's
// wiring patched at the changed sinks, the overlay's diff materialised,
// its violation delta and the targeted node's attribute checked
// exactly — also against the reference dirty-cone delta and a trial
// that records no diff — and the trial repeated from the resolution's
// repaired rather than BFS levels), the delta from the parent wiring,
// and the delta from a stale ancestor fixed point with and without
// levels (the multi-change diff the shared cache produces under
// parallel candidate evaluation).
// Every level array produced is checked for the witness invariant. It
// also checks the CSR adjacency against the census.
func TestIncrementalPropagateMatchesFull(t *testing.T) {
	type tcase struct {
		name  string
		build func(testing.TB) (*Analysis, *rsn.Network)
	}
	var cases []tcase
	for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
		cases = append(cases, tcase{name, func(tb testing.TB) (*Analysis, *rsn.Network) { return catalogCase(tb, name, 0.15, 7) }})
	}
	cases = append(cases, tcase{"scale1000", scaleCase})
	for _, seed := range flexScanSeeds {
		cases = append(cases, tcase{fmt.Sprintf("flexscan%d", seed), func(tb testing.TB) (*Analysis, *rsn.Network) { return flexScanCase(tb, seed) }})
	}
	for _, c := range cases {
		name := c.name
		t.Run(name, func(t *testing.T) {
			a, nw := c.build(t)
			checkAdjacency(t, a, nw)
			ref := newRefGraph(a)
			p0 := a.propagate(nw)
			nw0 := nw.Clone()
			// rolling follows the applied changes by propagateDelta
			// alone, and cur by resolveStep alone, so their levels are
			// repaired ones, never a BFS's.
			rolling, rollingNW := p0, nw0
			rs := &roundState{}
			cur := p0
			candidates := 0
			for step := 0; step < 12; step++ {
				parent := a.propagate(nw)
				propEqual(t, "full", ref.propagate(nw), parent)
				checkLevels(t, "full", a, nw, parent, parent.lv)
				checkLevels(t, "full from a level BFS", a, nw, parent, levelsOf(a, parent, nw))
				viols := a.violationsFrom(parent)
				if len(viols) == 0 {
					break
				}
				v := viols[0].Node
				_, _, hops, err := a.flowChain(nw, v, new(chainScratch))
				if err != nil {
					break // insecure-logic flow: nothing to transform
				}
				parentNW := nw.Clone()
				pw := a.buildWiring(nw)
				for _, h := range hops {
					pin := rsn.Sink{Elem: rsn.Reg(h.To), Idx: 0}
					var srcs []rsn.Ref
					for _, pr := range nw.PurePredecessors(h.To, new(rsn.Marks)) {
						if pr != h.From {
							srcs = append(srcs, rsn.Reg(pr))
						}
					}
					srcs = append(srcs, rsn.ScanIn)
					for _, src := range srcs {
						rw, err := nw.Rewire(pin, src)
						if err != nil {
							continue
						}
						if nw.Validate() == nil {
							full := ref.propagate(nw)
							want := len(a.violationsFrom(full)) - len(viols)
							tw, seeds := a.trialWiring(pw, nw, rw)
							wiringEqual(t, a, nw, tw)
							size := a.total + len(nw.Muxes)
							for _, lv := range []struct {
								name string
								lv   []int32
							}{{"trial", parent.lv}, {"trial from repaired levels", cur.lv}} {
								var d attrDiff
								dv, in := a.delta(parent, lv.lv, tw, nw, seeds, v, &d)
								tlv := make([]int32, size*a.ncat())
								tp := a.materialise(&propagation{}, parent, lv.lv, &d, size, tlv)
								propEqual(t, lv.name, full, tp)
								checkLevels(t, lv.name, a, nw, tp, tlv)
								if dv != want || in != full.attrIn[v] {
									t.Fatalf("%s: violation delta %d, attrIn[v] %v; want %d, %v", lv.name, dv, in, want, full.attrIn[v])
								}
								if ndv, nin := a.delta(parent, lv.lv, tw, nw, seeds, v, nil); ndv != dv || nin != in {
									t.Fatalf("%s without a diff: %d, %v; want %d, %v", lv.name, ndv, nin, dv, in)
								}
							}
							cone, cdv := ref.deltaOn(parent, tw, nw, seeds)
							propEqual(t, "reference cone delta", full, cone)
							if cdv != want {
								t.Fatalf("reference cone violation delta %d, want %d", cdv, want)
							}
							for _, parents := range []struct {
								name string
								p    *propagation
								nw   *rsn.Network
							}{
								{"parent delta", parent, parentNW},
								{"ancestor delta", p0, nw0},
							} {
								q := a.propagateDelta(parents.p, parents.nw, nw)
								propEqual(t, parents.name, full, q)
								checkLevels(t, parents.name, a, nw, q, q.lv)
							}
							candidates++
						}
						nw.Undo(rw)
						if len(nw.ChangedInputs(parentNW)) != 0 || len(nw.Muxes) != len(parentNW.Muxes) {
							t.Fatal("Undo did not restore the wiring")
						}
					}
				}
				next, err := resolveStep(a, nw, cur, rs, v)
				if err != nil {
					break
				}
				full := ref.propagate(nw)
				propEqual(t, "applied change", full, next)
				checkLevels(t, "applied change", a, nw, next, next.lv)
				cur = next
				rolling, rollingNW = a.propagateDelta(rolling, rollingNW, nw), nw.Clone()
				propEqual(t, "rolling repair", full, rolling)
				checkLevels(t, "rolling repair", a, nw, rolling, rolling.lv)
			}
			if candidates == 0 {
				t.Fatal("no candidate changes were compared")
			}
			t.Logf("%s: %d candidate changes compared", name, candidates)
		})
	}
}

// resolveStep runs one round of Resolve's plan, targeting violating
// node v, outside a resolve stage.
func resolveStep(a *Analysis, nw *rsn.Network, cur *propagation, rs *roundState, v int) (*propagation, error) {
	w := a.buildWiring(nw)
	p := a.hybridPlan(nw, engine.Stage{})
	u, cands, err := p.candidates(cur, v, &rs.chain, nil)
	if err != nil {
		return nil, err
	}
	_, _, next, ok := a.step(nw, cur, rs, w, a.rounds(nw, w, 1), cands, v, p.better)
	if !ok {
		return nil, p.stuck(u, v)
	}
	return next, nil
}

// TestFixedPointCache checks the cache semantics: identical wiring is
// answered with the cached fixed point outright, changed wiring goes
// through the delta path with the identical result, and a WithSpec copy
// never reuses the original's cache (attributes depend on the spec).
func TestFixedPointCache(t *testing.T) {
	a, nw := catalogCase(t, "BasicSCB", 0.15, 7)

	p1 := a.fixedPoint(nw)
	if a.fixedPoint(nw) != p1 {
		t.Fatal("identical wiring must be answered from the cache")
	}
	propEqual(t, "cached full", a.propagate(nw), p1)

	// Re-wire, then check the delta-path answer against from-scratch.
	viols := a.violationsFrom(p1)
	_, _, hops, err := a.flowChain(nw, viols[0].Node, new(chainScratch))
	if err != nil {
		t.Fatal(err)
	}
	trial := nw.Clone()
	if _, err := trial.CutAndReconnect(rsn.Sink{Elem: rsn.Reg(hops[0].To), Idx: 0}, rsn.ScanIn); err != nil {
		t.Fatal(err)
	}
	p2 := a.fixedPoint(trial)
	if p2 == p1 {
		t.Fatal("changed wiring must not be answered from the cache")
	}
	propEqual(t, "delta path", a.propagate(trial), p2)

	// A spec copy must compute its own fixed point for the same wiring.
	spec2 := a.Spec.Clone()
	if len(spec2.Accepts) > 0 {
		spec2.Accepts[0] = 0
	}
	b := a.WithSpec(spec2)
	if b.cache == a.cache {
		t.Fatal("WithSpec must install a fresh cache")
	}
	propEqual(t, "spec copy", b.propagate(trial), b.fixedPoint(trial))
}

// TestResolveDeterministicAcrossWorkers checks the byte-identical
// output guarantee of the parallel candidate evaluation: the applied
// change sequence of Resolve must not depend on the worker count —
// results land in candidate-order slots, the trial fixed points are
// exact at any schedule, and the tie-break scans slots in order.
func TestResolveDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"BasicSCB", "TreeFlat"} {
		t.Run(name, func(t *testing.T) {
			a, nw := catalogCase(t, name, 0.15, 7)
			var ref []rsn.Change
			for i, workers := range []int{1, 3, 8} {
				an, err := NewAnalysisOpts(nw, a.Circuit, internalOf(a), a.Spec, a.Mode,
					engine.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				run := nw.Clone()
				res, err := Resolve(an, run)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if i == 0 {
					ref = res.Changes
					continue
				}
				if len(res.Changes) != len(ref) {
					t.Fatalf("workers=%d: %d changes, want %d", workers, len(res.Changes), len(ref))
				}
				for j := range ref {
					if res.Changes[j] != ref[j] {
						t.Fatalf("workers=%d: change %d = %v, want %v", workers, j, res.Changes[j], ref[j])
					}
				}
			}
		})
	}
}

// internalOf recovers the bridged (internal) flip-flop list of an
// analysis from its Denoted marks.
func internalOf(a *Analysis) []netlist.FFID {
	var out []netlist.FFID
	for f := 0; f < a.NumCircuitFFs(); f++ {
		if !a.Denoted[f] {
			out = append(out, netlist.FFID(f))
		}
	}
	return out
}

// BenchmarkPropagate measures one from-scratch fixed-point propagation
// over a scaled catalog benchmark's combined graph.
func BenchmarkPropagate(b *testing.B) {
	a, nw := catalogCase(b, "MBIST_1_5_5", 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.propagate(nw)
	}
}

// BenchmarkPropagateDelta measures the incremental propagation of one
// candidate cut/reconnect change against the cached parent fixed point.
func BenchmarkPropagateDelta(b *testing.B) {
	a, nw := catalogCase(b, "MBIST_1_5_5", 0.15, 7)
	parent := a.propagate(nw)
	viols := a.violationsFrom(parent)
	_, _, hops, err := a.flowChain(nw, viols[0].Node, new(chainScratch))
	if err != nil {
		b.Fatal(err)
	}
	trial := nw.Clone()
	if _, err := trial.CutAndReconnect(rsn.Sink{Elem: rsn.Reg(hops[0].To), Idx: 0}, rsn.ScanIn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.propagateDelta(parent, nw, trial)
	}
}

// BenchmarkResolveHybrid measures a full hybrid resolution run — the
// loop the incremental propagation and parallel candidate evaluation
// target — on a scaled catalog benchmark.
func BenchmarkResolveHybrid(b *testing.B) {
	a, nw := catalogCase(b, "BasicSCB", 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an := a.WithSpec(a.Spec) // fresh cache: measure from cold
		run := nw.Clone()
		b.StartTimer()
		if _, err := Resolve(an, run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveHybridFlexScan measures the resolve loop on the
// serial-bypass benchmark scaled to the recorded 350 flip-flop budget
// — the workload that dominates the original experimental protocol's
// hybrid stage. It mirrors one protocol run: a role-aware generated
// specification and the pure stage applied first, so Resolve sees the
// post-pure network.
func BenchmarkResolveHybridFlexScan(b *testing.B) {
	bm, ok := bench.ByName("FlexScan")
	if !ok {
		b.Fatal("FlexScan missing from the catalog")
	}
	nw := bm.Build(bm.ScaleForTarget(350))
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 7)
	an, err := NewAnalysisOpts(nw, att.Circuit, att.Internal, nil, dep.Exact, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var a2 *Analysis
	var run *rsn.Network
	for specSeed := int64(0); specSeed < 64 && run == nil; specSeed++ {
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), specSeed)
		cand := an.WithSpec(spec)
		if len(cand.InsecureModulePairs()) > 0 {
			continue
		}
		r := nw.Clone()
		if len(cand.Violations(r)) == 0 {
			continue
		}
		if _, err := ResolvePure(r, spec, engine.Options{}); err != nil {
			continue
		}
		if len(cand.Violations(r)) == 0 {
			continue
		}
		a2, run = cand, r
	}
	if run == nil {
		b.Fatal("no spec seed with post-pure hybrid violations found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an2 := a2.WithSpec(a2.Spec) // fresh cache: measure from cold
		r := run.Clone()
		b.StartTimer()
		if _, err := Resolve(an2, r); err != nil {
			b.Fatal(err)
		}
	}
}
