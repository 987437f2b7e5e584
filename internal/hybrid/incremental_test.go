package hybrid

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/pure"
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

// checkAdjacency asserts that the CSR arrays hold Base's path edges row
// for row — pathIn its rows, pathOut their transpose, computed here —
// and that headReg maps exactly each register's bit 0.
func checkAdjacency(t *testing.T, a *Analysis) {
	t.Helper()
	dependents := make([][]int32, a.total)
	for i := 0; i < a.total; i++ {
		a.Base.PathDependsOn(i).ForEach(func(j int) { dependents[j] = append(dependents[j], int32(i)) })
	}
	for n := 0; n < a.total; n++ {
		var in []int32
		a.Base.PathDependsOn(n).ForEach(func(j int) { in = append(in, int32(j)) })
		for _, c := range []struct {
			name      string
			row, want []int32
		}{
			{"pathIn", a.pathIn.Row(n), in},
			{"pathOut", a.pathOut.Row(n), dependents[n]},
		} {
			if !slices.Equal(c.row, c.want) {
				t.Fatalf("%s row %d = %v, Base has %v", c.name, n, c.row, c.want)
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
// delta worklist: it drives the resolve loop over catalog benchmarks
// and a 1000-flip-flop rsngen hierarchy with an attached circuit and,
// at every iteration, evaluates EVERY candidate cut/reconnect change —
// all compatible pure-path predecessors of each wiring hop, uncapped,
// plus the scan-in fallback — comparing the incremental propagation
// against a from-scratch propagation, attribute for attribute: the
// candidate-trial path (the change applied in place, the round's wiring
// patched at the changed sinks, the violation count derived from the
// dirty cone), the delta from the parent wiring, and the delta from a
// stale ancestor fixed point (the multi-change diff the shared cache
// produces under parallel candidate evaluation). It also checks the CSR
// adjacency against Base.
func TestIncrementalPropagateMatchesFull(t *testing.T) {
	cases := []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5", "scale1000"}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			var a *Analysis
			var nw *rsn.Network
			if name == "scale1000" {
				a, nw = scaleCase(t)
			} else {
				a, nw = catalogCase(t, name, 0.15, 7)
			}
			checkAdjacency(t, a)
			p0 := a.propagate(nw)
			nw0 := nw.Clone()
			candidates := 0
			for step := 0; step < 12; step++ {
				parent := a.propagate(nw)
				viols := a.violationsFrom(parent)
				if len(viols) == 0 {
					break
				}
				v := viols[0].Node
				u, _, hops, err := a.flowChain(nw, v)
				if err != nil {
					break // insecure-logic flow: nothing to transform
				}
				parentNW := nw.Clone()
				pw := a.buildWiring(nw)
				for _, h := range hops {
					pin := rsn.Sink{Elem: rsn.Reg(h.To), Idx: 0}
					var srcs []rsn.Ref
					for _, pr := range nw.PurePredecessors(h.To) {
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
							full := a.propagate(nw)
							tw, seeds := a.trialWiring(pw, nw, rw)
							wiringEqual(t, a, nw, tw)
							tp, dv := a.propagateDeltaOn(parent, tw, nw, seeds)
							propEqual(t, "trial", full, tp)
							if want := len(a.violationsFrom(full)) - len(viols); dv != want {
								t.Fatalf("trial violation delta %d, want %d", dv, want)
							}
							propEqual(t, "parent delta", full, a.propagateDelta(parent, parentNW, nw))
							propEqual(t, "ancestor delta", full, a.propagateDelta(p0, nw0, nw))
							candidates++
						}
						nw.Undo(rw)
						if len(nw.ChangedInputs(parentNW)) != 0 || len(nw.Muxes) != len(parentNW.Muxes) {
							t.Fatal("Undo did not restore the wiring")
						}
					}
				}
				if _, next, err := a.resolveOne(engine.Stage{}, nw, parent, u, v, hops, len(viols)); err != nil {
					break
				} else {
					propEqual(t, "applied change", a.propagate(nw), next)
				}
			}
			if candidates == 0 {
				t.Fatal("no candidate changes were compared")
			}
			t.Logf("%s: %d candidate changes compared", name, candidates)
		})
	}
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
	_, _, hops, err := a.flowChain(nw, viols[0].Node)
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
	_, _, hops, err := a.flowChain(nw, viols[0].Node)
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
		if _, err := pure.Resolve(r, spec, engine.Options{}); err != nil {
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
