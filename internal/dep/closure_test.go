package dep

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// reverseConsistent checks that the reverse rows mirror the forward
// structural rows exactly (Matrix.Equal only compares forward rows).
// A closure matrix has no reverse rows and is not checked here.
func reverseConsistent(t *testing.T, m *Matrix) {
	t.Helper()
	for i := 0; i < m.N(); i++ {
		i := i
		m.str[i].ForEach(func(j int) {
			if !m.rstr[j].Has(i) {
				t.Fatalf("rstr[%d] missing %d", j, i)
			}
		})
		m.rstr[i].ForEach(func(j int) {
			if !m.str[j].Has(i) {
				t.Fatalf("rstr[%d] has stale %d", i, j)
			}
		})
	}
}

// countsConsistent checks that the kept entry counts equal a fresh
// popcount of the forward rows.
func countsConsistent(t *testing.T, m *Matrix) {
	t.Helper()
	if got, want := m.CountDeps(), popcount(m.str); got != want {
		t.Fatalf("CountDeps = %d, popcount %d", got, want)
	}
	if got, want := m.CountPath(), popcount(m.path); got != want {
		t.Fatalf("CountPath = %d, popcount %d", got, want)
	}
}

// identical reports whether two matrices have equal forward and
// reverse rows.
func identical(a, b *Matrix) bool {
	if !a.Equal(b) || len(a.rstr) != len(b.rstr) {
		return false
	}
	for i := range a.rstr {
		if !a.rstr[i].Equal(&b.rstr[i]) {
			return false
		}
	}
	return true
}

// TestSCCClosureMatchesWarshall is the differential check of the sparse
// closure: on random matrices of varying size, density and cyclicity —
// with both Path and Structural entries — and on the dependency
// matrices of scaled catalog benchmarks in both modes, ClosureOpts must
// produce matrices bit-identical to the dense Warshall reference at any
// worker count, with entry counts equal to a fresh popcount, and leave
// their input untouched.
func TestSCCClosureMatchesWarshall(t *testing.T) {
	check := func(t *testing.T, base *Matrix) {
		t.Helper()
		ref := base.Clone()
		closureWarshall(ref)
		reverseConsistent(t, ref)
		for _, workers := range []int{1, 3, 8} {
			in := base.Clone()
			m, err := ClosureOpts(in, in.PathCSR(), engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !m.Equal(ref) {
				t.Fatalf("workers=%d: SCC closure differs from Warshall", workers)
			}
			countsConsistent(t, m)
			if !identical(in, base) {
				t.Fatalf("workers=%d: closure modified its input", workers)
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for iter := 0; iter < 80; iter++ {
			n := 2 + rng.Intn(40)
			base := NewMatrix(n)
			// Sweep density from sparse DAG-like up to heavily cyclic;
			// include self-loops (i == j is allowed by Intn collisions).
			edges := rng.Intn(4 * n)
			for e := 0; e < edges; e++ {
				base.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
			}
			check(t, base)
		}
		// A few long chains and pure cycles: the shapes register chains
		// and capture/update couplings produce after bridging.
		for _, n := range []int{1, 2, 65, 130} {
			chain := NewMatrix(n)
			ring := NewMatrix(n)
			for i := 1; i < n; i++ {
				chain.Set(i, i-1, Path)
				ring.Set(i, i-1, Structural)
			}
			if n > 1 {
				ring.Set(0, n-1, Path)
			}
			check(t, chain)
			check(t, ring)
		}
	})

	t.Run("catalog", func(t *testing.T) {
		for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
			for _, mode := range []Mode{Exact, StructuralApprox} {
				t.Run(name+"/"+mode.String(), func(t *testing.T) {
					b, ok := bench.ByName(name)
					if !ok {
						t.Fatalf("unknown benchmark %q", name)
					}
					att := bench.AttachCircuit(b.Build(0.15), bench.DefaultCircuitConfig(), 7)
					var stats Stats
					m := oneCycleMatrix(att.Circuit, mode, &stats)
					Bridge(m, att.Internal)
					reverseConsistent(t, m)
					check(t, m)
				})
			}
		}
	})
}

// TestClosureOptsCancellation checks that a cancelled context stops the
// closure with the context's error and leaves the matrix untouched.
func TestClosureOptsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := NewMatrix(60)
	for e := 0; e < 200; e++ {
		base.Set(rng.Intn(60), rng.Intn(60), Kind(1+rng.Intn(2)))
	}
	m := base.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClosureOpts(m, m.PathCSR(), engine.Options{Context: ctx}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !identical(m, base) {
		t.Fatal("cancelled closure modified the matrix")
	}
}

// TestClosureItemsCounter checks that the stage items counter records
// the condensed component count of both relations.
func TestClosureItemsCounter(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 0, Path)
	m.Set(2, 1, Path)
	m.Set(1, 2, Path) // 1 and 2 form one SCC of the path relation
	stats := engine.NewStats()
	if _, err := ClosureOpts(m, m.PathCSR(), engine.Options{Stats: stats}); err != nil {
		t.Fatal(err)
	}
	// path relation: {0}, {1,2}, {3} = 3 components; str relation (a
	// superset, same edges here): 3 components as well.
	if got := stats.Stage("closure").Items(); got != 6 {
		t.Fatalf("closure items = %d, want 6", got)
	}
}

// BenchmarkClosureWarshall is the dense reference baseline for
// BenchmarkClosure (which runs the sparse SCC condensation).
func BenchmarkClosureWarshall(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	base := NewMatrix(n)
	for e := 0; e < n*4; e++ {
		base.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := base.Clone()
		closureWarshall(m)
	}
}
