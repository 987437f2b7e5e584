package pure

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// sameChanges fails unless the two resolvers applied identical changes
// and left identically wired networks.
func sameChanges(t *testing.T, ctx string, got, want *Result, gotNW, wantNW *rsn.Network) {
	t.Helper()
	if got.ViolatingBefore != want.ViolatingBefore {
		t.Fatalf("%s: ViolatingBefore = %d, reference %d", ctx, got.ViolatingBefore, want.ViolatingBefore)
	}
	if len(got.Changes) != len(want.Changes) {
		t.Fatalf("%s: %d changes, reference %d", ctx, len(got.Changes), len(want.Changes))
	}
	for i := range want.Changes {
		if got.Changes[i] != want.Changes[i] {
			t.Fatalf("%s: change %d = %v, reference %v", ctx, i, got.Changes[i], want.Changes[i])
		}
	}
	if len(gotNW.ChangedInputs(wantNW)) != 0 || len(gotNW.Muxes) != len(wantNW.Muxes) {
		t.Fatalf("%s: resolved wirings differ", ctx)
	}
}

// TestPureResolveMatchesReference is the differential check of the
// dirty-cone resolver against the former from-scratch one
// (reference_test.go): on every Table I benchmark at the protocol's
// 700-flip-flop budget (FlexScan at scales 0.01 and 0.1) under 8 seeded
// specifications drawn the way the protocol draws them, and on the
// random networks of TestResolveRandomNetworks, both must apply the
// identical change list.
func TestPureResolveMatchesReference(t *testing.T) {
	type tcase struct {
		name  string
		scale float64
	}
	var cases []tcase
	for _, b := range bench.Catalog() {
		if b.Name == "FlexScan" {
			cases = append(cases, tcase{b.Name, 0.01}, tcase{b.Name, 0.1})
			continue
		}
		cases = append(cases, tcase{b.Name, b.ScaleForTarget(700)})
	}
	total := 0
	for _, c := range cases {
		b, _ := bench.ByName(c.name)
		base := b.Build(c.scale)
		for seed := int64(0); seed < 8; seed++ {
			nw := base.Clone()
			att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
			spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), seed)
			refNW := nw.Clone()
			want, werr := referenceResolve(refNW, spec)
			got, err := Resolve(nw, spec, engine.Options{})
			ctx := c.name
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s@%g seed %d: error %v, reference %v", ctx, c.scale, seed, err, werr)
			}
			sameChanges(t, ctx, got, want, nw, refNW)
			total += len(got.Changes)
		}
	}
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 40; iter++ {
		nw := randomNetwork(rng, 4+rng.Intn(10))
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), rng.Int63())
		refNW := nw.Clone()
		want, werr := referenceResolve(refNW, spec)
		got, err := Resolve(nw, spec, engine.Options{})
		if err != nil || werr != nil {
			t.Fatalf("random %d: error %v, reference %v", iter, err, werr)
		}
		sameChanges(t, "random", got, want, nw, refNW)
		total += len(got.Changes)
	}
	if total == 0 {
		t.Fatal("no changes compared")
	}
	t.Logf("%d changes compared", total)
}

// TestDeriveMatchesPropagate checks every trial propagation against a
// from-scratch one: attributes element for element and the violating
// count, for all candidate rewirings of a random network's violating
// registers.
func TestDeriveMatchesPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials := 0
	for iter := 0; iter < 30; iter++ {
		nw := randomNetwork(rng, 4+rng.Intn(10))
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), rng.Int63())
		q := newPropagator(spec)
		p := Propagate(nw, spec)
		fan := newFanout(nw)
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
				tp, after, ok := q.derive(p, &fan, nw, rw)
				if !ok {
					t.Fatalf("iter %d: acyclic trial rejected", iter)
				}
				ref := referencePropagate(nw, spec)
				if after != len(ref.Violating) {
					t.Fatalf("iter %d: %d violating, reference %d", iter, after, len(ref.Violating))
				}
				for _, e := range nw.ElementTopoOrder() {
					if tp.In(e) != ref.In(e) || tp.Out(e) != ref.Out(e) {
						t.Fatalf("iter %d: %v attributes %v/%v, reference %v/%v", iter, e, tp.In(e), tp.Out(e), ref.In(e), ref.Out(e))
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
}

// TestCyclicTrialRejected checks that a candidate whose rewiring closes
// a cycle is rejected by the dirty-cone evaluation instead of panicking
// or looping (the from-scratch reference would panic in its
// topological sort).
func TestCyclicTrialRejected(t *testing.T) {
	nw, spec := chainSpec()
	q := newPropagator(spec)
	p := Propagate(nw, spec)
	fan := newFanout(nw)
	// A <- C closes the cycle A -> B -> C -> A.
	rw, err := nw.Rewire(rsn.Sink{Elem: rsn.Reg(0)}, rsn.Reg(2))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Validate() == nil {
		t.Fatal("trial wiring should be cyclic")
	}
	if _, _, ok := q.derive(p, &fan, nw, rw); ok {
		t.Fatal("cyclic trial accepted")
	}
	nw.Undo(rw)
	// The propagator stays usable after the rejection.
	if got, ok := q.full(nw); !ok {
		t.Fatal("restored acyclic network reported cyclic")
	} else if !slices.Equal(got.Violating, p.Violating) {
		t.Fatalf("violating after rejection = %v, want %v", got.Violating, p.Violating)
	}
	// Resolve reports a cyclic network as an error.
	if _, err := nw.Rewire(rsn.Sink{Elem: rsn.Reg(0)}, rsn.Reg(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(nw, spec, engine.Options{}); err == nil {
		t.Fatal("Resolve accepted a cyclic network")
	}
}

// BenchmarkResolvePureFlexScan measures one pure-stage resolution of
// the serial-bypass benchmark at scales 0.01 (the size the flexscan
// end-to-end workload runs) and 0.1, with the specification drawn the
// way the protocol draws it, for the dirty-cone resolver and the
// from-scratch reference.
func BenchmarkResolvePureFlexScan(b *testing.B) {
	bm, _ := bench.ByName("FlexScan")
	for _, scale := range []float64{0.01, 0.1} {
		nw := bm.Build(scale)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 2)
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), 2)
		for _, r := range []struct {
			name    string
			resolve func(*rsn.Network, *secspec.Spec) (*Result, error)
		}{{"cone", func(nw *rsn.Network, spec *secspec.Spec) (*Result, error) {
			return Resolve(nw, spec, engine.Options{})
		}}, {"reference", referenceResolve}} {
			b.Run(fmt.Sprintf("scale=%g/%s", scale, r.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					run := nw.Clone()
					b.StartTimer()
					if _, err := r.resolve(run, spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
