package hybrid

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// checkRounds installs the every-round oracle on roundCheck for the
// rest of tb: after every change a resolution applies, the committed
// wiring must equal buildWiring's row for row, the network must pass
// Validate, every worker clone must have the network's wiring, the
// fixed point must carry valid witness levels and the carried violation
// count must equal a fresh count. A pure round must
// also remove its target's violation and lower the number of violating
// registers by at least one: that is why the pure stage needs no
// acceptance test beyond "adds no violation" and never reaches the
// round bound (DESIGN.md, "Pure stage on the hybrid engine"). It
// returns the number of rounds checked so far.
func checkRounds(tb testing.TB) *int {
	tb.Helper()
	n := new(int)
	roundCheck = func(a *Analysis, nw *rsn.Network, p *plan, w *wiring, rr *rsn.Rounds, cur *propagation, v, before, viols int) {
		tb.Helper()
		wiringEqual(tb, a, nw, w)
		if err := nw.Validate(); err != nil {
			tb.Fatalf("round %d: applied change left an invalid network: %v", *n, err)
		}
		for i, cp := range rr.Clones() {
			if d := cp.ChangedInputs(nw); len(d) != 0 || len(cp.Muxes) != len(nw.Muxes) {
				tb.Fatalf("round %d: clone %d differs from the network at %v (%d muxes, network %d)", *n, i, d, len(cp.Muxes), len(nw.Muxes))
			}
		}
		if len(cur.lv) != len(cur.attrOut)*a.ncat() {
			tb.Fatalf("round %d: fixed point carries %d levels, want %d", *n, len(cur.lv), len(cur.attrOut)*a.ncat())
		}
		checkLevels(tb, fmt.Sprintf("round %d", *n), a, nw, cur, cur.lv)
		if got := len(a.violationsFrom(cur)); got != viols {
			tb.Fatalf("round %d: carried violation count %d, fresh count %d", *n, viols, got)
		}
		if p.name == "pure" {
			if !cur.attrIn[v].Has(a.Spec.Trust[a.nodeModule[v]]) {
				tb.Fatalf("round %d: pure change left its target R%d violating", *n, v)
			}
			if viols > before-1 {
				tb.Fatalf("round %d: pure change took the violating registers from %d to %d", *n, before, viols)
			}
		}
		*n++
	}
	tb.Cleanup(func() { roundCheck = nil })
	return n
}

// TestPureRoundsOracle runs ResolvePure under the every-round oracle
// on the cases of package pure's TestPureResolveMatchesReference, which
// cannot reach the unexported hook: every Table I benchmark at the
// protocol's 700-flip-flop budget (FlexScan at scales 0.01 and 0.1)
// under 8 seeded specifications, and the random networks of its two
// sets, at 1 and 4 workers.
func TestPureRoundsOracle(t *testing.T) {
	rounds := checkRounds(t)
	run := func(ctx string, nw *rsn.Network, spec *secspec.Spec) {
		for _, workers := range []int{1, 4} {
			if _, err := ResolvePure(nw.Clone(), spec, engine.Options{Workers: workers}); err != nil {
				t.Fatalf("%s (%d workers): %v", ctx, workers, err)
			}
		}
	}
	for _, b := range bench.Catalog() {
		scales := []float64{b.ScaleForTarget(700)}
		if b.Name == "FlexScan" {
			scales = []float64{0.01, 0.1}
		}
		for _, scale := range scales {
			base := b.Build(scale)
			for seed := int64(0); seed < 8; seed++ {
				nw := base.Clone()
				att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
				spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), seed)
				run(fmt.Sprintf("%s@%g seed %d", b.Name, scale, seed), nw, spec)
			}
		}
	}
	for _, set := range []struct {
		seed             int64
		networks, spread int
	}{{77, 40, 10}, {1, 400, 20}} {
		rng := rand.New(rand.NewSource(set.seed))
		for iter := range set.networks {
			nw := bench.RandomNetwork(rng, 4+rng.Intn(set.spread))
			spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), rng.Int63())
			run(fmt.Sprintf("random %d/%d", set.seed, iter), nw, spec)
		}
	}
	if *rounds == 0 {
		t.Fatal("no round checked")
	}
	t.Logf("%d rounds checked", *rounds)
}

// TestResolveRoundsOracleRandom sweeps random networks with attached
// circuits through both stages, ResolvePure then Resolve, at 1 and 4
// workers under the every-round oracle.
func TestResolveRoundsOracleRandom(t *testing.T) {
	rounds := checkRounds(t)
	rng := rand.New(rand.NewSource(32))
	hybridRounds := 0
	for iter := range 400 {
		base := bench.RandomNetwork(rng, 4+rng.Intn(20))
		att := bench.AttachCircuit(base, bench.DefaultCircuitConfig(), rng.Int63())
		spec := secspec.GenerateWithRoles(len(base.Modules), att.DataSources, secspec.DefaultGenConfig(), rng.Int63())
		a := NewAnalysis(base, att.Circuit, att.Internal, spec, dep.Exact)
		if len(a.InsecureModulePairs()) > 0 {
			continue
		}
		for _, workers := range []int{1, 4} {
			nw := base.Clone()
			if _, err := ResolvePure(nw, spec, engine.Options{Workers: workers}); err != nil {
				t.Fatalf("random %d (%d workers): pure stage: %v", iter, workers, err)
			}
			before := *rounds
			res, err := Resolve(a.WithSpec(spec).WithEngine(engine.Options{Workers: workers}), nw)
			if _, insecure := err.(*ErrInsecureLogic); err != nil && !insecure {
				t.Fatalf("random %d (%d workers): %v", iter, workers, err)
			}
			if *rounds-before != len(res.Changes) {
				t.Fatalf("random %d (%d workers): %d rounds checked for %d changes", iter, workers, *rounds-before, len(res.Changes))
			}
			hybridRounds += len(res.Changes)
		}
	}
	if hybridRounds == 0 {
		t.Fatal("no hybrid round checked")
	}
	t.Logf("%d rounds checked, %d of them hybrid", *rounds, hybridRounds)
}

// TestFedCountsPins checks the consumer count the resolvers hand to
// rsn.Rounds: for every register and mux of random networks, and of
// one whose mux lists a register twice, the length of its wiring row
// must equal the number of register and mux input pins it feeds, in
// the register view and in the full analysis.
func TestFedCountsPins(t *testing.T) {
	twice := rsn.New("twice")
	m := twice.AddModule("m")
	for range 3 {
		twice.AddRegister("R", 2, m)
	}
	twice.Connect(0, rsn.ScanIn)
	twice.Connect(1, rsn.Mx(twice.AddMux("M0", rsn.Reg(0), rsn.Reg(0))))
	twice.Connect(2, rsn.Reg(0))
	twice.ConnectOut(rsn.Mx(twice.AddMux("M1", rsn.Reg(1), rsn.Reg(2))))
	nets := []*rsn.Network{twice}
	rng := rand.New(rand.NewSource(5))
	for range 100 {
		nets = append(nets, bench.RandomNetwork(rng, 2+rng.Intn(12)))
	}
	for _, nw := range nets {
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), 1)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 1)
		for _, a := range []*Analysis{newRegisterView(nw, spec), NewAnalysis(nw, att.Circuit, att.Internal, spec, dep.Exact)} {
			fed := a.rounds(nw, a.buildWiring(nw), 1).Fed
			srcs := []rsn.Ref{}
			for r := range nw.Registers {
				srcs = append(srcs, rsn.Reg(r))
			}
			for m := range nw.Muxes {
				srcs = append(srcs, rsn.Mx(m))
			}
			for _, src := range srcs {
				want := 0
				for r := range nw.Registers {
					if nw.Registers[r].In == src {
						want++
					}
				}
				for m := range nw.Muxes {
					for _, in := range nw.Muxes[m].Inputs {
						if in == src {
							want++
						}
					}
				}
				if got := fed(src); got != want {
					t.Fatalf("%s: %v feeds %d pins, its row has %d", nw.Name, src, want, got)
				}
			}
		}
	}
	a := newRegisterView(twice, secspec.Generate(1, secspec.DefaultGenConfig(), 1))
	if n := a.rounds(twice, a.buildWiring(twice), 1).Fed(rsn.Reg(0)); n != 3 {
		t.Fatalf("R0 feeds M0 twice and R2: counted %d pins, want 3", n)
	}
}
