package rsn

import (
	"math/rand"
	"slices"
	"testing"
)

// pinsFed counts, by scanning nw, the register and mux input pins src
// feeds, a mux listing src twice counting twice: what Rounds.Fed
// reports.
func pinsFed(nw *Network) func(Ref) int {
	return func(src Ref) int {
		n := 0
		for i := range nw.Registers {
			if nw.Registers[i].In == src {
				n++
			}
		}
		for i := range nw.Muxes {
			for _, in := range nw.Muxes[i].Inputs {
				if in == src {
					n++
				}
			}
		}
		return n
	}
}

// edgeNetworks returns the hand-built networks of the consumer and
// validation edge cases: the diamond (C's old source is mux M0); A
// feeding mux M0 twice, which feeds B; B driving scan-out and a mux
// that feeds nothing (muxes need not reach scan-out); and a network
// with an unconnected register input, acyclic but invalid.
func edgeNetworks() map[string]*Network {
	twice := New("twice")
	m := twice.AddModule("m")
	a := twice.AddRegister("A", 1, m)
	b := twice.AddRegister("B", 1, m)
	twice.Connect(a, ScanIn)
	twice.Connect(b, Mx(twice.AddMux("M0", Reg(a), Reg(a))))
	twice.ConnectOut(Reg(b))

	out := New("out")
	m = out.AddModule("m")
	a = out.AddRegister("A", 1, m)
	b = out.AddRegister("B", 2, m)
	out.Connect(a, ScanIn)
	out.Connect(b, Reg(a))
	out.AddMux("M0", Reg(b))
	out.ConnectOut(Reg(b))

	open := buildDiamond()
	open.Connect(1, NoRef)
	return map[string]*Network{"diamond": buildDiamond(), "twice": twice, "out": out, "open": open}
}

// allCandidates lists every pin of nw (register inputs, mux inputs,
// scan-out) with every other source (scan-in, registers, muxes, the
// scan-out port).
func allCandidates(nw *Network) []Candidate {
	pins := []Sink{{Elem: ScanOut}}
	for r := range nw.Registers {
		pins = append(pins, Sink{Elem: Reg(r)})
	}
	for m := range nw.Muxes {
		for i := range nw.Muxes[m].Inputs {
			pins = append(pins, Sink{Mx(m), i})
		}
	}
	srcs := []Ref{ScanIn, ScanOut}
	for r := range nw.Registers {
		srcs = append(srcs, Reg(r))
	}
	for m := range nw.Muxes {
		srcs = append(srcs, Mx(m))
	}
	var out []Candidate
	for _, p := range pins {
		for _, s := range srcs {
			out = append(out, Candidate{p, s})
		}
	}
	return out
}

// TestRewireFedMatchesScan checks the consumer decision: rewiring any
// pin to any source with the round-start pin counts must record the
// same Rewiring and leave the same wiring as Rewire's scan, on the
// edge-case networks and on random ones.
func TestRewireFedMatchesScan(t *testing.T) {
	nets := edgeNetworks()
	rng := rand.New(rand.NewSource(32))
	for i := range 200 {
		nets["random"+string(rune('a'+i%26))+string(rune('0'+i/26))] = randomAccessNetwork(rng, 2+rng.Intn(10))
	}
	reattached := 0
	for name, nw := range nets {
		for _, c := range allCandidates(nw) {
			got, want := nw.cloneWiring(), nw.cloneWiring()
			grw, gerr := got.rewire(c.Pin, c.NewSrc, pinsFed(nw))
			wrw, werr := want.Rewire(c.Pin, c.NewSrc)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s %v: error %v, scan %v", name, c, gerr, werr)
			}
			if !slices.Equal(grw.Pins, wrw.Pins) || !slices.Equal(grw.Prev, wrw.Prev) || grw.Muxes != wrw.Muxes ||
				len(got.ChangedInputs(want)) != 0 || len(got.Muxes) != len(want.Muxes) {
				t.Fatalf("%s %v: Rewiring %+v, scan %+v", name, c, grw, wrw)
			}
			if len(got.Muxes) > len(nw.Muxes) {
				reattached++
			}
		}
	}
	for _, tc := range []struct {
		name     string
		pin      Sink
		reattach bool
	}{
		{"twice", Sink{Mx(0), 0}, false},       // A still feeds M0's other input
		{"out", Sink{Mx(0), 0}, false},         // B still drives scan-out
		{"out", Sink{Elem: ScanOut}, false},    // B still feeds M0
		{"out", Sink{Elem: Reg(1)}, true},      // A fed only B
		{"diamond", Sink{Elem: Reg(2)}, true},  // the old source is a mux
		{"diamond", Sink{Elem: ScanOut}, true}, // C fed only scan-out
	} {
		nw := nets[tc.name].cloneWiring()
		rw, err := nw.rewire(tc.pin, ScanIn, pinsFed(nets[tc.name]))
		if err != nil || (len(nw.Muxes) > rw.Muxes) != tc.reattach {
			t.Fatalf("%s: cut %v: %d muxes inserted (err %v), want re-attachment %v", tc.name, tc.pin, len(nw.Muxes)-rw.Muxes, err, tc.reattach)
		}
	}
	if reattached == 0 {
		t.Fatal("no change re-attached a dangling source")
	}
}

// TestKeepsValidMatchesValidate checks the local winner validation
// against a full Validate: for every AppendCandidates candidate of
// every register of the edge-case and random networks the change is
// applied and keepsValid must agree with Validate, locally on settled
// networks and by falling back to Validate on the others (the
// unconnected-input network, whose input is invalid, and the network
// whose mux feeds nothing).
func TestKeepsValidMatchesValidate(t *testing.T) {
	nets := edgeNetworks()
	rng := rand.New(rand.NewSource(33))
	for i := range 200 {
		nets["random"+string(rune('a'+i%26))+string(rune('0'+i/26))] = randomAccessNetwork(rng, 2+rng.Intn(10))
	}
	local, fallback := 0, 0
	for name, nw := range nets {
		var cands []Candidate
		for y := range nw.Registers {
			cands = AppendCandidates(cands, y, nw.PurePredecessors(y, new(Marks)), nw.Registers[y].In, len(nw.Registers), func(int) bool { return true })
		}
		for _, c := range cands {
			run := nw.cloneWiring()
			r := &Rounds{Net: run, checked: true, valid: run.settled()}
			rw, err := run.rewire(c.Pin, c.NewSrc, pinsFed(run))
			if err != nil {
				continue
			}
			want := run.Validate()
			if got := r.keepsValid(c); got != (want == nil) {
				t.Fatalf("%s %v (settled %v): keepsValid %v, Validate %v", name, c, r.valid, got, want)
			}
			if r.valid {
				local++
			} else {
				fallback++
			}
			run.Undo(rw)
		}
	}
	if local == 0 || fallback == 0 {
		t.Fatalf("%d changes checked locally, %d by Validate", local, fallback)
	}
}

// TestApplyRoundLocalValidation runs rounds on persistent Rounds: on
// the diamond two rounds of AppendCandidates candidates are validated
// locally, with the clones made once and replayed; ApplyBest rejects
// the foreign cyclic candidate A <- C, and ApplyRound the mux source of
// A <- M0, by a full Validate; and on the
// unconnected-input network a scan-in candidate that leaves the input
// unconnected is rejected by the full Validate the invalid input
// keeps (C <- SI), and the one connecting it (B <- A) is applied.
func TestApplyRoundLocalValidation(t *testing.T) {
	trial := func(net *Network, rw Rewiring) (int, bool) {
		src := net.SinkSource(rw.Pins[0])
		return int(src.ID), true
	}
	better := func(s, t int) bool { return s > t }
	all := func(int) bool { return true }
	for _, workers := range []int{1, 3} {
		nw := buildDiamond()
		r := &Rounds{Net: nw, Workers: workers}
		cands := AppendCandidates(nil, 2, nw.PurePredecessors(2, new(Marks)), Mx(0), 6, all)
		ch, _, ok := ApplyRound(r, cands, trial, better)
		want := Change{Cut: Sink{Elem: Reg(2)}, OldSrc: Mx(0), NewSrc: Reg(1), NewMuxes: 1}
		if !ok || ch != want || !r.valid {
			t.Fatalf("workers=%d: change %v ok %v valid %v, want %v", workers, ch, ok, r.valid, want)
		}
		if err := nw.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(r.Clones()) != min(workers, len(cands))-1 {
			t.Fatalf("workers=%d: %d clones", workers, len(r.Clones()))
		}
		// A second round reuses the clones, which must carry the first
		// round's change.
		clones := slices.Clone(r.Clones())
		for _, cp := range clones {
			if len(cp.ChangedInputs(nw)) != 0 || len(cp.Muxes) != len(nw.Muxes) {
				t.Fatalf("workers=%d: clone not replayed", workers)
			}
		}
		cands = AppendCandidates(nil, 2, nw.PurePredecessors(2, new(Marks)), Reg(1), 6, all)
		if ch, _, ok = ApplyRound(r, cands, trial, better); !ok || ch.NewSrc != Reg(0) || nw.Validate() != nil {
			t.Fatalf("workers=%d: second round applied %v (ok %v), want C <- A", workers, ch, ok)
		}
		if !slices.Equal(clones, r.Clones()[:len(clones)]) {
			t.Fatalf("workers=%d: clones were remade", workers)
		}
		for _, cp := range r.Clones() {
			if len(cp.ChangedInputs(nw)) != 0 || len(cp.Muxes) != len(nw.Muxes) {
				t.Fatalf("workers=%d: clone not replayed after the second round", workers)
			}
		}

		// A foreign candidate may close a cycle: ApplyBest validates
		// its favourite, A <- C, in full and applies C <- SI instead.
		nw = buildDiamond()
		cands = []Candidate{{Sink{Elem: Reg(0)}, Reg(2)}, {Sink{Elem: Reg(2)}, ScanIn}}
		if ch, _, ok = ApplyBest(nw, cands, workers, trial, better); !ok || ch.NewSrc != ScanIn || nw.Validate() != nil {
			t.Fatalf("workers=%d: ApplyBest applied %v (ok %v), want C <- SI", workers, ch, ok)
		}

		// A mux source is no AppendCandidates candidate: ApplyRound
		// validates it in full, and A <- M0 closes a cycle.
		nw = buildDiamond()
		if ch, _, ok = ApplyRound(&Rounds{Net: nw, Workers: workers}, []Candidate{{Sink{Elem: Reg(0)}, Mx(0)}}, trial, better); ok || nw.Validate() != nil {
			t.Fatalf("workers=%d: ApplyRound applied the cyclic %v", workers, ch)
		}
	}

	open := edgeNetworks()["open"]
	r := &Rounds{Net: open, Fed: pinsFed(open)}
	cut := Candidate{Sink{Elem: Reg(2)}, ScanIn}
	if _, _, ok := ApplyRound(r, []Candidate{cut}, trial, better); ok || r.valid {
		t.Fatal("a change leaving the input unconnected was applied")
	}
	if ch, _, ok := ApplyRound(r, []Candidate{cut, {Sink{Elem: Reg(1)}, Reg(0)}}, trial, better); !ok || ch.Cut.Elem != Reg(1) {
		t.Fatalf("applied %v (ok %v), want B <- A", ch, ok)
	}

	// A valid network whose mux feeds nothing is not settled: feeding
	// scan-out from scan-in leaves B feeding M0 alone, stranding A and
	// B, and the full Validate it keeps rejects that.
	out := edgeNetworks()["out"]
	r = &Rounds{Net: out, Fed: pinsFed(out)}
	if ch, _, ok := ApplyRound(r, []Candidate{{Sink{Elem: ScanOut}, ScanIn}}, trial, better); ok || r.valid || out.Validate() != nil {
		t.Fatalf("unsettled network: applied %v (ok %v, valid %v)", ch, ok, r.valid)
	}
}
