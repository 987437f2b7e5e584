package pure

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// sameChanges fails unless the two resolvers applied identical changes
// and left identically wired networks.
func sameChanges(t *testing.T, ctx string, got, want *hybrid.Result, gotNW, wantNW *rsn.Network) {
	t.Helper()
	if got.ViolationsBefore != want.ViolationsBefore {
		t.Fatalf("%s: ViolationsBefore = %d, reference %d", ctx, got.ViolationsBefore, want.ViolationsBefore)
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
// pure resolver against the former from-scratch one
// (reference_test.go): on every Table I benchmark at the protocol's
// 700-flip-flop budget (FlexScan at scales 0.01 and 0.1) under 8 seeded
// specifications drawn the way the protocol draws them, on the random
// networks of TestResolveRandomNetworks and on 400 random networks of
// 4 to 23 registers, both must apply the identical change list, with
// the resolver's trials on 1 and on 4 workers.
func TestPureResolveMatchesReference(t *testing.T) {
	pureWorkers := []int{1, 4}
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
			for _, workers := range pureWorkers {
				run := nw.Clone()
				got, err := hybrid.ResolvePure(run, spec, engine.Options{Workers: workers})
				ctx := fmt.Sprintf("%s (%d workers)", c.name, workers)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s@%g seed %d: error %v, reference %v", ctx, c.scale, seed, err, werr)
				}
				sameChanges(t, ctx, got, want, run, refNW)
				total += len(got.Changes)
			}
		}
	}
	// The second set's larger networks reach rounds where candidates
	// tie on cost and the violations after them decide.
	for _, set := range []struct {
		seed             int64
		networks, spread int
	}{{77, 40, 10}, {1, 400, 20}} {
		rng := rand.New(rand.NewSource(set.seed))
		for iter := 0; iter < set.networks; iter++ {
			nw := randomNetwork(rng, 4+rng.Intn(set.spread))
			spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), rng.Int63())
			refNW := nw.Clone()
			want, werr := referenceResolve(refNW, spec)
			for _, workers := range pureWorkers {
				run := nw.Clone()
				got, err := hybrid.ResolvePure(run, spec, engine.Options{Workers: workers})
				if err != nil || werr != nil {
					t.Fatalf("random %d/%d: error %v, reference %v", set.seed, iter, err, werr)
				}
				sameChanges(t, "random", got, want, run, refNW)
				total += len(got.Changes)
			}
		}
	}
	if total == 0 {
		t.Fatal("no changes compared")
	}
	t.Logf("%d changes compared", total)
}

// BenchmarkResolvePureFlexScan measures one pure-stage resolution of
// the serial-bypass benchmark at scales 0.01 (the size the flexscan
// end-to-end workload runs) and 0.1, with the specification drawn the
// way the protocol draws it, for the resolver on the witness-repair
// engine (one worker) and the from-scratch reference.
func BenchmarkResolvePureFlexScan(b *testing.B) {
	bm, _ := bench.ByName("FlexScan")
	for _, scale := range []float64{0.01, 0.1} {
		nw := bm.Build(scale)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 2)
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), 2)
		for _, r := range []struct {
			name    string
			resolve func(*rsn.Network, *secspec.Spec) (*hybrid.Result, error)
		}{{"engine", func(nw *rsn.Network, spec *secspec.Spec) (*hybrid.Result, error) {
			return hybrid.ResolvePure(nw, spec, engine.Options{Workers: 1})
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
