package hybrid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// censusOf runs the census of a's build: the same circuit and mode, the
// registers of nw (their lengths and capture/update links are fixed
// infrastructure, untouched by re-wiring) and the flip-flops a bridged.
// The elimination order does not change the bridged matrix.
func censusOf(tb testing.TB, a *Analysis, nw *rsn.Network) *dep.Census {
	tb.Helper()
	var internal []netlist.FFID
	for i, d := range a.Denoted {
		if !d {
			internal = append(internal, netlist.FFID(i))
		}
	}
	c, err := NewCensus(nw, a.Circuit, internal, a.Mode, engine.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// insecurePair is a fixed-infrastructure flow Src -> Dst (combined
// indices) that violates the specification.
type insecurePair struct{ Src, Dst int }

// insecureLogic is the closure-based reference of the insecure-logic
// check (Section III-B): every pair of denoted combined indices where
// dst path-depends on src in the census's node-level closure and the
// specification forbids the flow between their modules, sorted by
// (Src, Dst).
func insecureLogic(a *Analysis, c *dep.Census) []insecurePair {
	var out []insecurePair
	for i := 0; i < a.total; i++ {
		if !a.Denoted[i] {
			continue
		}
		c.Clo.PathDependsOn(i).ForEach(func(j int) {
			if a.Denoted[j] && a.Spec.Violates(a.nodeModule[j], a.nodeModule[i]) {
				out = append(out, insecurePair{Src: j, Dst: i})
			}
		})
	}
	slices.SortFunc(out, func(x, y insecurePair) int {
		if x.Src != y.Src {
			return x.Src - y.Src
		}
		return x.Dst - y.Dst
	})
	return out
}

// modulePairsRef deduplicates the reference's node pairs to module
// pairs, sorted: what InsecureModulePairs must return.
func modulePairsRef(a *Analysis, logic []insecurePair) [][2]int {
	var want [][2]int
	seen := map[[2]int]bool{}
	for _, p := range logic {
		mp := [2]int{a.NodeModule(p.Src), a.NodeModule(p.Dst)}
		if !seen[mp] {
			seen[mp] = true
			want = append(want, mp)
		}
	}
	slices.SortFunc(want, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	return want
}

// checkModulePairs compares InsecureModulePairs on a under each spec
// against the closure reference on the census, and returns the number
// of specs with insecure logic.
func checkModulePairs(t *testing.T, name string, an *Analysis, nw *rsn.Network, specs []*secspec.Spec) int {
	t.Helper()
	c := censusOf(t, an, nw)
	nonEmpty := 0
	for k, spec := range specs {
		a := an.WithSpec(spec)
		want := modulePairsRef(a, insecureLogic(a, c))
		if got := a.InsecureModulePairs(); !slices.Equal(got, want) {
			t.Fatalf("%s spec %d: InsecureModulePairs = %v, closure reference %v", name, k, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	return nonEmpty
}

// protocolSpecs returns n protocol specifications (GenerateWithRoles,
// as the Table I protocol draws them) and n role-free ones, which mark
// modules without data sources confidential too.
func protocolSpecs(modules int, sources []bool, n int, seed int64) []*secspec.Spec {
	var specs []*secspec.Spec
	for s := int64(0); s < int64(n); s++ {
		specs = append(specs,
			secspec.GenerateWithRoles(modules, sources, secspec.DefaultGenConfig(), seed+s*31),
			secspec.Generate(modules, secspec.DefaultGenConfig(), seed+s*31))
	}
	return specs
}

// TestInsecureModulePairsMatchClosure is the differential check of the
// condensation-based insecure-logic check against the node-level
// closure of the census: on the Table I protocol (every catalog
// benchmark at about 80 and 400 scan flip-flops, two attached
// circuits), on
// FlexScan at scales 0.01 and 0.1, and on the random-network
// generator, in both modes, the module pairs must be identical — and
// some of every family must be non-empty.
func TestInsecureModulePairsMatchClosure(t *testing.T) {
	t.Run("protocol", func(t *testing.T) {
		nonEmpty := 0
		for _, b := range bench.Catalog() {
			for _, target := range []int{80, 400} {
				nw := b.Build(b.ScaleForTarget(target))
				for seed := int64(1); seed <= 2; seed++ {
					att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
					an := NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact)
					specs := protocolSpecs(len(nw.Modules), att.DataSources, 4, seed*104729)
					nonEmpty += checkModulePairs(t, fmt.Sprintf("%s@%d seed %d", b.Name, target, seed), an, nw, specs)
				}
			}
		}
		if nonEmpty == 0 {
			t.Fatal("no protocol case with insecure logic")
		}
		t.Logf("%d specifications with insecure logic", nonEmpty)
	})
	t.Run("flexscan", func(t *testing.T) {
		b, _ := bench.ByName("FlexScan")
		nonEmpty := 0
		for _, scale := range []float64{0.01, 0.1} {
			nw := b.Build(scale)
			for seed := int64(1); seed <= 3; seed++ {
				att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
				an := NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact)
				specs := protocolSpecs(len(nw.Modules), att.DataSources, 4, seed)
				nonEmpty += checkModulePairs(t, fmt.Sprintf("scale %.2f seed %d", scale, seed), an, nw, specs)
			}
		}
		if nonEmpty == 0 {
			t.Fatal("no FlexScan case with insecure logic")
		}
		t.Logf("%d specifications with insecure logic", nonEmpty)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		nonEmpty := 0
		for iter := 0; iter < 40; iter++ {
			nw := bench.RandomNetwork(rng, 3+rng.Intn(8))
			att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), rng.Int63())
			mode := dep.Exact
			if iter%2 == 1 {
				mode = dep.StructuralApprox
			}
			an := NewAnalysis(nw, att.Circuit, att.Internal, nil, mode)
			specs := protocolSpecs(len(nw.Modules), att.DataSources, 3, rng.Int63())
			nonEmpty += checkModulePairs(t, fmt.Sprintf("iter %d", iter), an, nw, specs)
		}
		if nonEmpty == 0 {
			t.Fatal("no random case with insecure logic")
		}
		t.Logf("%d specifications with insecure logic", nonEmpty)
	})
}

// TestInsecureModulePairsRandomGraphs compares InsecureModulePairs with
// the closure reference on random path relations that the pipeline's
// shapes seldom give: acyclic singleton sources, self-loops, long
// chains, and non-denoted nodes on the paths between denoted ones.
func TestInsecureModulePairsRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	nonEmpty := 0
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(100)
		nm := 1 + rng.Intn(6)
		m := dep.NewPathMatrix(n)
		for e := rng.Intn(2 * n); e > 0; e-- {
			m.Set(rng.Intn(n), rng.Intn(n), dep.Path)
		}
		if iter%3 == 0 { // a chain: every node an acyclic singleton
			for i := 1; i < n; i++ {
				m.Set(i, i-1, dep.Path)
			}
		}
		a := &Analysis{total: n, nodeModule: make([]int, n), Denoted: make([]bool, n),
			Spec: secspec.Generate(nm, secspec.DefaultGenConfig(), rng.Int63())}
		for i := range n {
			a.nodeModule[i] = rng.Intn(nm)
			a.Denoted[i] = rng.Intn(6) > 0
		}
		a.pathIn = m.PathCSR()
		a.sccComp, a.sccMembers, a.sccStart = a.pathIn.SCC()
		clo, err := dep.ClosureOpts(m, a.pathIn, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := modulePairsRef(a, insecureLogic(a, &dep.Census{Clo: clo}))
		if got := a.InsecureModulePairs(); !slices.Equal(got, want) {
			t.Fatalf("iter %d: InsecureModulePairs = %v, closure reference %v", iter, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d random graphs with insecure logic", nonEmpty)
	}
}

// TestPathOnlyBuildMatchesCensus checks that the analysis's path-only
// build keeps exactly the path relation of the census's two-relation
// build: pathIn row for row equals the census's bridged path rows, and
// the path entry count agrees, on catalog benchmarks in both modes.
func TestPathOnlyBuildMatchesCensus(t *testing.T) {
	for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5", "FlexScan"} {
		for _, mode := range []dep.Mode{dep.Exact, dep.StructuralApprox} {
			b, _ := bench.ByName(name)
			nw := b.Build(0.3)
			if name == "FlexScan" {
				nw = b.Build(0.05)
			}
			att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 5)
			a := NewAnalysis(nw, att.Circuit, att.Internal, nil, mode)
			c := censusOf(t, a, nw)
			if a.DepStats.PathDeps != c.Base.CountPath() {
				t.Fatalf("%s/%v: %d path deps, census %d", name, mode, a.DepStats.PathDeps, c.Base.CountPath())
			}
			for i := 0; i < a.total; i++ {
				if got, want := a.pathIn.Row(i), c.Base.PathDependsOn(i).AppendTo(nil); !slices.Equal(got, want) {
					t.Fatalf("%s/%v: pathIn row %d = %v, census %v", name, mode, i, got, want)
				}
			}
		}
	}
}
