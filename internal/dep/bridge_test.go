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

// pathOnly returns a path-only copy of m: the matrix the pipeline
// builds from the same Set calls.
func pathOnly(m *Matrix) *Matrix {
	p := NewPathMatrix(m.n)
	for i := range m.path {
		p.path[i].Copy(&m.path[i])
	}
	p.npath = m.npath
	return p
}

// TestBridgeMatchesReference is the differential check of the
// word-parallel Bridge against the per-pair reference loop: rows and
// both entry counts must agree, and the counts must equal a fresh
// popcount. Bridging the path-only copy of the input must give exactly
// the two-relation result's path rows and count.
func TestBridgeMatchesReference(t *testing.T) {
	check := func(t *testing.T, base *Matrix, internal []netlist.FFID) {
		t.Helper()
		got, want := base.Clone(), base.Clone()
		Bridge(got, internal)
		bridgeReference(want, internal)
		if !got.Equal(want) {
			t.Fatalf("Bridge(%v) differs from the reference", internal)
		}
		if got.CountDeps() != want.CountDeps() || got.CountPath() != want.CountPath() {
			t.Fatalf("counts %d/%d, reference %d/%d",
				got.CountDeps(), got.CountPath(), want.CountDeps(), want.CountPath())
		}
		countsConsistent(t, got)
		po := pathOnly(base)
		Bridge(po, internal)
		if !identical(po, pathOnly(got)) {
			t.Fatalf("path-only Bridge(%v) differs from the two-relation path rows", internal)
		}
		countsConsistent(t, po)
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

	t.Run("word-boundaries", func(t *testing.T) {
		// Entries and internal flip-flops sit on the bits around word
		// boundaries (63/64, 127/128 and the last bit of a partial
		// word), internal flip-flops carry self-loops, and the dense
		// internal block gives fill-in.
		rng := rand.New(rand.NewSource(73))
		for _, n := range []int{63, 64, 65, 127, 129, 130, 191} {
			var edge []int
			for _, b := range []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190} {
				if b < n {
					edge = append(edge, b)
				}
			}
			edge = append(edge, n-1)
			for iter := 0; iter < 20; iter++ {
				base := NewMatrix(n)
				for e := 4 * n; e > 0; e-- {
					i, j := rng.Intn(n), rng.Intn(n)
					if rng.Intn(2) == 0 {
						i = edge[rng.Intn(len(edge))]
					}
					if rng.Intn(2) == 0 {
						j = edge[rng.Intn(len(edge))]
					}
					base.Set(i, j, Kind(1+rng.Intn(2)))
				}
				var internal []netlist.FFID
				for _, k := range rng.Perm(len(edge)) {
					if rng.Intn(3) > 0 {
						internal = append(internal, netlist.FFID(edge[k]))
						base.Set(edge[k], edge[k], Kind(1+rng.Intn(2)))
					}
				}
				check(t, base, internal)
			}
		}
	})

	t.Run("fill-in", func(t *testing.T) {
		// 0 <- 1 <- 2 <- 3 <- 4 <- 5 (i <- j: i depends on j), with 1, 2
		// and 3 internal and eliminated in the order 1, 3, 2. Bridging 1
		// makes 0 a new dependent of the pending 2 (fill-in) and leaves
		// 1 as a stale dependent of 2; bridging 3 gives 2 the
		// predecessor 4. 3 and 2 carry self-loops, and 0 depends on 4
		// only if bridging 2 follows the fill-in.
		for _, kinds := range [][5]Kind{
			{Path, Path, Path, Path, Path},
			{Path, Structural, Path, Path, Path},
			{Path, Path, Path, Structural, Path},
			{Structural, Path, Path, Path, Structural},
		} {
			base := NewMatrix(70)
			for i, k := range kinds {
				base.Set(i, i+1, k)
			}
			base.Set(3, 3, Path)
			base.Set(2, 2, Structural)
			base.Set(69, 2, Path) // a dependent of 2 in the next word
			internal := []netlist.FFID{1, 3, 2}
			check(t, base, internal)
			got := base.Clone()
			Bridge(got, internal)
			if want := Combine(Combine(kinds[0], kinds[1]), Combine(kinds[2], kinds[3])); got.Kind(0, 4) != want {
				t.Fatalf("kinds %v: dep(0, 4) = %v after bridging, want %v", kinds, got.Kind(0, 4), want)
			}
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
// a fresh popcount after random interleavings of Set and Bridge, on
// two-relation and path-only matrices.
func TestMatrixCountsMatchPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(100)
		m := NewMatrix(n)
		if iter%2 == 1 {
			m = NewPathMatrix(n)
		}
		for op := 0; op < 6*n; op++ {
			if rng.Intn(10) == 0 {
				Bridge(m, []netlist.FFID{netlist.FFID(rng.Intn(n))})
				countsConsistent(t, m)
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
