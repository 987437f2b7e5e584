package rsn

import (
	"math/rand"
	"slices"
	"testing"
)

// TestActivePathWellFormed checks structural properties of active paths
// across random networks and configurations:
//
//   - every register on the path appears exactly once, as a contiguous
//     run of its flip-flops in ascending order;
//   - the path ends at the register driving the scan-out (after muxes);
//   - every register on the path is backward-reachable from scan-out.
func TestActivePathWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		nw := randomAccessNetwork(rng, 3+rng.Intn(10))
		if err := nw.Validate(); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			cfg := nw.NewConfig()
			for m := range nw.Muxes {
				cfg[m] = rng.Intn(len(nw.Muxes[m].Inputs))
			}
			path, err := nw.ActivePath(cfg)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			seen := map[int]bool{}
			i := 0
			for i < len(path) {
				r := path[i].Register
				if seen[r] {
					t.Fatalf("register R%d appears twice on the path", r)
				}
				seen[r] = true
				for f := 0; f < nw.Registers[r].Len; f++ {
					if i >= len(path) || path[i].Register != r || path[i].FF != f {
						t.Fatalf("register R%d not contiguous/ordered on path %v", r, path)
					}
					i++
				}
			}
			if len(path) > 0 {
				last := path[len(path)-1].Register
				if !nw.PureReaches(Reg(last), ScanOut) {
					t.Fatalf("path tail R%d cannot reach scan-out", last)
				}
			}
		}
	}
}

// TestShiftIdentity: shifting a pattern of PathLen bits through the
// active path and then PathLen zeros returns the pattern unchanged —
// the scan path is a FIFO.
func TestShiftIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 40; iter++ {
		nw := randomAccessNetwork(rng, 3+rng.Intn(8))
		cfg := nw.NewConfig()
		for m := range nw.Muxes {
			cfg[m] = rng.Intn(len(nw.Muxes[m].Inputs))
		}
		path, err := nw.ActivePath(cfg)
		if err != nil || len(path) == 0 {
			continue
		}
		sim := NewSimulator(nw, nil)
		pattern := make([]bool, len(path))
		for i := range pattern {
			pattern[i] = rng.Intn(2) == 1
		}
		if _, err := sim.ShiftN(cfg, pattern, len(pattern)); err != nil {
			t.Fatal(err)
		}
		out, err := sim.ShiftN(cfg, nil, len(pattern))
		if err != nil {
			t.Fatal(err)
		}
		for i := range pattern {
			if out[i] != pattern[i] {
				t.Fatalf("iter %d: FIFO property violated at bit %d", iter, i)
			}
		}
	}
}

// TestPureReachesTransitive: reachability over the wiring graph is
// transitive and respects direct edges.
func TestPureReachesTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 30; iter++ {
		nw := randomAccessNetwork(rng, 4+rng.Intn(8))
		n := len(nw.Registers)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !nw.PureReaches(Reg(a), Reg(b)) {
					continue
				}
				for c := 0; c < n; c++ {
					if nw.PureReaches(Reg(b), Reg(c)) && !nw.PureReaches(Reg(a), Reg(c)) {
						t.Fatalf("transitivity violated: R%d->R%d->R%d", a, b, c)
					}
				}
			}
		}
		// Direct edges imply reachability.
		for i := range nw.Registers {
			for _, src := range nw.AppendEffectiveSources(nil, i, new(Marks)) {
				if src.Kind == KRegister && !nw.PureReaches(src, Reg(i)) {
					t.Fatalf("direct source %v does not reach R%d", src, i)
				}
			}
		}
	}
}

// TestMarksReuse: one Marks reused across networks of growing and
// shrinking size, and across the wrap of its generation counter, walks
// exactly what fresh marks walk.
func TestMarksReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var m Marks
	for iter := 0; iter < 200; iter++ {
		nw := randomAccessNetwork(rng, 2+rng.Intn(12))
		if iter%10 == 9 {
			// Stamp a walk with generation 1, then make the next walk
			// wrap the counter back to 1.
			m = Marks{}
			nw.PurePredecessors(len(nw.Registers)-1, &m)
			m.gen = ^uint32(0)
		}
		for y := range nw.Registers {
			got, want := nw.PurePredecessors(y, &m), nw.PurePredecessors(y, new(Marks))
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d: predecessors of R%d on reused marks %v, fresh %v", iter, y, got, want)
			}
			gotSrc := nw.AppendEffectiveSources(nil, y, &m)
			if wantSrc := nw.AppendEffectiveSources(nil, y, new(Marks)); !slices.Equal(gotSrc, wantSrc) {
				t.Fatalf("iter %d: sources of R%d on reused marks %v, fresh %v", iter, y, gotSrc, wantSrc)
			}
		}
	}
}

// TestCutAndReconnectInvariants: cutting any register's input and
// re-wiring it to the scan-in port keeps the network valid (all
// registers accessible, acyclic), whatever the topology.
func TestCutAndReconnectInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 60; iter++ {
		nw := randomAccessNetwork(rng, 4+rng.Intn(8))
		victim := rng.Intn(len(nw.Registers))
		if nw.Registers[victim].In == ScanIn {
			continue
		}
		regsBefore := len(nw.Registers)
		if _, err := nw.CutAndReconnect(Sink{Elem: Reg(victim)}, ScanIn); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := nw.Validate(); err != nil {
			t.Fatalf("iter %d: invalid after cut: %v", iter, err)
		}
		if len(nw.Registers) != regsBefore {
			t.Fatal("register count changed")
		}
	}
}

// TestRewireUndo: Rewire reports exactly the connections it changed —
// its elements are what ChangedInputs finds against a pre-change clone —
// and Undo restores the previous wiring, inserted muxes included.
func TestRewireUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for iter := 0; iter < 60; iter++ {
		nw := randomAccessNetwork(rng, 4+rng.Intn(8))
		orig := nw.Clone()
		victim := rng.Intn(len(nw.Registers))
		src := ScanIn
		if preds := nw.PurePredecessors(victim, new(Marks)); len(preds) > 0 {
			src = Reg(preds[rng.Intn(len(preds))])
		}
		rw, err := nw.Rewire(Sink{Elem: Reg(victim)}, src)
		if err != nil {
			continue
		}
		if rw.Muxes != len(orig.Muxes) {
			t.Fatalf("iter %d: recorded %d muxes before, network had %d", iter, rw.Muxes, len(orig.Muxes))
		}
		got, want := rw.Elems(nw), nw.ChangedInputs(orig)
		if len(got) != len(want) {
			t.Fatalf("iter %d: Elems %v, ChangedInputs %v", iter, got, want)
		}
		for _, e := range want {
			if !slices.Contains(got, e) {
				t.Fatalf("iter %d: Elems %v misses %v", iter, got, e)
			}
		}
		nw.Undo(rw)
		if len(nw.ChangedInputs(orig)) != 0 || len(nw.Muxes) != len(orig.Muxes) {
			t.Fatalf("iter %d: Undo left %v changed", iter, nw.ChangedInputs(orig))
		}
	}
}

// TestEffectiveSourcesOrder: sources come out in depth-first order over
// the mux inputs, each once, unconnected inputs included.
func TestEffectiveSourcesOrder(t *testing.T) {
	nw := New("eff")
	for i := 0; i < 4; i++ {
		nw.AddRegister("R", 1, 0)
	}
	inner := nw.AddMux("inner", Reg(1), Reg(0), NoRef)
	outer := nw.AddMux("outer", Reg(2), Mx(inner), Reg(1), ScanIn, NoRef)
	nw.Connect(3, Mx(outer))
	prefix := []Ref{Reg(3)}
	got := nw.AppendEffectiveSources(slices.Clone(prefix), 3, new(Marks))
	if want := []Ref{Reg(3), Reg(2), Reg(1), Reg(0), NoRef, ScanIn}; !slices.Equal(got, want) {
		t.Fatalf("AppendEffectiveSources = %v, want %v", got, want)
	}
}
