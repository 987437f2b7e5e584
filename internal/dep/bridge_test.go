package dep

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// hybridShaped builds the matrix the hybrid analysis bridges for a
// scaled catalog benchmark with an attached circuit: the circuit's
// 1-cycle dependencies over a combined index space (circuit flip-flops,
// then scan flip-flops), the preset register chains and the
// capture/update links. It returns the matrix and the circuit's
// internal flip-flops.
func hybridShaped(tb testing.TB, name string, scale float64, mode Mode) (*Matrix, []netlist.FFID) {
	tb.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	nw := b.Build(scale)
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 7)
	offset := make([]int, len(nw.Registers))
	total := att.Circuit.NumFFs()
	for r := range nw.Registers {
		offset[r] = total
		total += nw.Registers[r].Len
	}
	m := NewMatrix(total)
	if err := FillOneCycleCfg(m, att.Circuit, mode, &Stats{}, engine.Options{}, OneCycleConfig{}); err != nil {
		tb.Fatal(err)
	}
	for r := range nw.Registers {
		reg := &nw.Registers[r]
		for j := 0; j < reg.Len; j++ {
			for i := 0; i < j; i++ {
				m.Set(offset[r]+j, offset[r]+i, Path)
			}
			if g := reg.Capture[j]; g != netlist.NoFF {
				m.Set(offset[r]+j, int(g), Path)
			}
			if f := reg.Update[j]; f != netlist.NoFF {
				m.Set(int(f), offset[r]+j, Path)
			}
		}
	}
	return m, att.Internal
}

// TestBridgeMatchesReference is the differential check of the
// word-parallel Bridge against the per-pair reference loop: forward
// rows, reverse rows and both entry counts must agree, and the counts
// must equal a fresh popcount.
func TestBridgeMatchesReference(t *testing.T) {
	check := func(t *testing.T, base *Matrix, internal []netlist.FFID) {
		t.Helper()
		got, want := base.Clone(), base.Clone()
		Bridge(got, internal)
		bridgeReference(want, internal)
		if !identical(got, want) {
			t.Fatalf("Bridge(%v) differs from the reference", internal)
		}
		if got.CountDeps() != want.CountDeps() || got.CountPath() != want.CountPath() {
			t.Fatalf("counts %d/%d, reference %d/%d",
				got.CountDeps(), got.CountPath(), want.CountDeps(), want.CountPath())
		}
		reverseConsistent(t, got)
		countsConsistent(t, got)
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		for iter := 0; iter < 200; iter++ {
			// Sizes straddle word boundaries; Intn collisions give
			// self-loops, and both kinds are mixed.
			n := 2 + rng.Intn(140)
			base := NewMatrix(n)
			for e := rng.Intn(5 * n); e > 0; e-- {
				base.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
			}
			for k := 0; k < n; k++ {
				if rng.Intn(8) == 0 {
					base.Set(k, k, Kind(1+rng.Intn(2)))
				}
			}
			// A random internal subset in a random elimination order.
			perm := rng.Perm(n)[:rng.Intn(n+1)]
			internal := make([]netlist.FFID, len(perm))
			for i, k := range perm {
				internal[i] = netlist.FFID(k)
			}
			check(t, base, internal)
		}
	})

	t.Run("catalog", func(t *testing.T) {
		for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
			for _, mode := range []Mode{Exact, StructuralApprox} {
				t.Run(name+"/"+mode.String(), func(t *testing.T) {
					m, internal := hybridShaped(t, name, 0.15, mode)
					if len(internal) == 0 {
						t.Fatal("catalog case has no internal flip-flops to bridge")
					}
					check(t, m, internal)
					// The reverse elimination order reaches the same
					// matrix by a different sequence of fill-ins.
					rev := make([]netlist.FFID, len(internal))
					for i, k := range internal {
						rev[len(internal)-1-i] = k
					}
					check(t, m, rev)
				})
			}
		}
	})
}

// TestMatrixCountsMatchPopcount checks that the kept entry counts equal
// a fresh popcount after random interleavings of Set and Bridge.
func TestMatrixCountsMatchPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(100)
		m := NewMatrix(n)
		for op := 0; op < 6*n; op++ {
			if rng.Intn(10) == 0 {
				Bridge(m, []netlist.FFID{netlist.FFID(rng.Intn(n))})
				countsConsistent(t, m)
				reverseConsistent(t, m)
				continue
			}
			m.Set(rng.Intn(n), rng.Intn(n), Kind(rng.Intn(3)))
		}
		countsConsistent(t, m)
		countsConsistent(t, m.Clone())
	}
}

// BenchmarkBridge bridges the internal flip-flops of a hybrid-shaped
// catalog matrix; each iteration bridges a fresh copy.
func BenchmarkBridge(b *testing.B) {
	base, internal := hybridShaped(b, "MBIST_1_5_5", 0.5, Exact)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		b.StartTimer()
		Bridge(m, internal)
	}
}
