package dep

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// catalogCircuit reconstructs the attached circuit of a scaled catalog
// benchmark, the same structures the experimental protocol runs on.
func catalogCircuit(t testing.TB, name string, scale float64, seed int64) *netlist.Netlist {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	nw := b.Build(scale)
	return bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed).Circuit
}

// fillOneCycleSequential is the pre-engine computation — one full miter
// encoding per (root, leaf) pair on a single goroutine, with no
// simulation prefilter and no reused scratch. It is the reference
// implementation for the differential tests and the sequential
// benchmark baseline.
func fillOneCycleSequential(m *Matrix, n *netlist.Netlist, mode Mode, stats *Stats) {
	if m.N() < n.NumFFs() {
		panic("dep: matrix smaller than circuit")
	}
	for b := range n.FFs {
		root := n.FFs[b].D
		if root == netlist.NoNode {
			continue
		}
		for _, a := range n.SupportFFs(root) {
			if mode == StructuralApprox {
				m.Set(b, int(a), Path)
				continue
			}
			stats.SATCalls++
			if NewConeQuerier(n, root).Depends(n.FFs[a].Node) {
				stats.Functional1Cycle++
				m.Set(b, int(a), Path)
			} else {
				stats.StructOnly1Cycle++
				m.Set(b, int(a), Structural)
			}
		}
	}
}

// TestParallelOneCycleMatchesSequential checks the engine's determinism
// guarantee: the pooled per-root computation produces a matrix
// bit-identical to the sequential reference, in both dependency modes,
// for any worker count.
func TestParallelOneCycleMatchesSequential(t *testing.T) {
	for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
		for _, mode := range []Mode{Exact, StructuralApprox} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				n := catalogCircuit(t, name, 0.15, 7)
				seq := NewMatrix(n.NumFFs())
				var seqStats Stats
				fillOneCycleSequential(seq, n, mode, &seqStats)
				for _, workers := range []int{1, 3, 8} {
					par := NewMatrix(n.NumFFs())
					var parStats Stats
					err := FillOneCycleCfg(par, n, mode, &parStats, engine.Options{Workers: workers}, OneCycleConfig{})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if !par.Equal(seq) {
						t.Fatalf("workers=%d mode=%v: parallel matrix differs from sequential", workers, mode)
					}
					// The prefilter answers some queries by simulation,
					// so the pooled path's SAT calls plus sim-resolved
					// leaves must cover exactly the sequential SAT calls.
					if parStats.SATCalls+parStats.SimResolved != seqStats.SATCalls ||
						parStats.Functional1Cycle != seqStats.Functional1Cycle ||
						parStats.StructOnly1Cycle != seqStats.StructOnly1Cycle {
						t.Fatalf("workers=%d: stats diverge: parallel %+v sequential %+v", workers, parStats, seqStats)
					}
				}
			})
		}
	}
}

// TestParallelOneCycleRandomCircuits widens the differential check over
// generated circuits of varying shape.
func TestParallelOneCycleRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c"}, 4), seed)
		seq := NewMatrix(g.N.NumFFs())
		var seqStats Stats
		fillOneCycleSequential(seq, g.N, Exact, &seqStats)
		par := NewMatrix(g.N.NumFFs())
		var parStats Stats
		if err := FillOneCycleCfg(par, g.N, Exact, &parStats, engine.Options{Workers: 4}, OneCycleConfig{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !par.Equal(seq) {
			t.Fatalf("seed %d: parallel matrix differs from sequential", seed)
		}
	}
}

// TestOneCycleCancellation checks that a cancelled context stops the
// computation with the context's error and leaves the matrix untouched.
func TestOneCycleCancellation(t *testing.T) {
	n := catalogCircuit(t, "BasicSCB", 0.15, 7)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	m := NewMatrix(n.NumFFs())
	var stats Stats
	err := FillOneCycleCfg(m, n, Exact, &stats, engine.Options{Context: ctx, Workers: 2}, OneCycleConfig{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.CountDeps() != 0 {
		t.Fatalf("cancelled run wrote %d entries into the matrix", m.CountDeps())
	}

	// An already-expired deadline behaves the same.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	m2 := NewMatrix(n.NumFFs())
	err = FillOneCycleCfg(m2, n, Exact, &stats, engine.Options{Context: dctx}, OneCycleConfig{})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if m2.CountDeps() != 0 {
		t.Fatal("expired run wrote into the matrix")
	}
}

// BenchmarkOneCycleSequential is the pre-engine baseline: one full
// miter encoding per (root, leaf) pair.
func BenchmarkOneCycleSequential(b *testing.B) {
	g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c", "d"}, 8), 4)
	m := NewMatrix(g.N.NumFFs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st Stats
		fillOneCycleSequential(m, g.N, Exact, &st)
	}
}

// BenchmarkOneCycleParallel is the engine path: per-root cone
// extraction and shared-miter encoding once, incremental cofactor
// queries per leaf, fanned over the worker pool.
func BenchmarkOneCycleParallel(b *testing.B) {
	g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c", "d"}, 8), 4)
	m := NewMatrix(g.N.NumFFs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st Stats
		if err := FillOneCycleCfg(m, g.N, Exact, &st, engine.Options{}, OneCycleConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
