package rsn

import (
	"slices"
	"testing"
)

func TestAppendCandidates(t *testing.T) {
	nw := buildDiamond() // C's pure-path predecessors are A and B
	pin := Sink{Elem: Reg(2)}
	all := func(int) bool { return true }
	for _, tc := range []struct {
		name       string
		skip       Ref
		limit      int
		compatible func(int) bool
		want       []Ref
	}{
		{"all", Mx(0), 6, all, []Ref{Reg(0), Reg(1), ScanIn}},
		{"limit", Mx(0), 1, all, []Ref{Reg(0), ScanIn}},
		{"skip", Reg(0), 6, all, []Ref{Reg(1), ScanIn}},
		{"incompatible", Mx(0), 6, func(pr int) bool { return pr != 1 }, []Ref{Reg(0), ScanIn}},
		{"fallback only", Mx(0), 0, func(int) bool { t.Fatal("limit 0 walked the predecessors"); return true }, []Ref{ScanIn}},
	} {
		prefix := []Candidate{{Sink{Elem: Reg(1)}, ScanIn}}
		got := nw.AppendCandidates(slices.Clone(prefix), 2, tc.skip, tc.limit, tc.compatible)
		want := prefix
		for _, src := range tc.want {
			want = append(want, Candidate{pin, src})
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: candidates %v, want %v", tc.name, got, want)
		}
	}
}

// TestApplyBestWorkers runs one round on the diamond at 1 and 3
// workers. The trial prefers later source registers and rejects the
// scan-in port; its favourite, A <- C, closes a cycle, so ApplyBest
// must discard it on validation and apply C <- B instead.
func TestApplyBestWorkers(t *testing.T) {
	trial := func(net *Network, rw Rewiring) (int, bool) {
		src := net.SinkSource(rw.Pins[0])
		return int(src.ID), src.Kind == KRegister
	}
	better := func(s, t int) bool { return s > t }
	want := Change{Cut: Sink{Elem: Reg(2)}, OldSrc: Mx(0), NewSrc: Reg(1), NewMuxes: 1}
	for _, workers := range []int{1, 3} {
		nw := buildDiamond()
		cands := nw.AppendCandidates([]Candidate{{Sink{Elem: Reg(0)}, Reg(2)}}, 2, Mx(0), 6, func(int) bool { return true })
		ch, score, ok := ApplyBest(nw, cands, workers, trial, better)
		if !ok || ch != want || score != 1 {
			t.Fatalf("workers=%d: change %v score %d ok %v, want %v score 1", workers, ch, score, ok, want)
		}
		if err := nw.Validate(); err != nil {
			t.Fatalf("workers=%d: applied wiring invalid: %v", workers, err)
		}
		if nw.Registers[2].In != Reg(1) || len(nw.Muxes) != 2 {
			t.Fatalf("workers=%d: change not applied to the network", workers)
		}
	}
}

func TestApplyBestNoCandidate(t *testing.T) {
	nw := buildDiamond()
	orig := nw.Clone()
	cands := nw.AppendCandidates(nil, 2, Mx(0), 6, func(int) bool { return true })
	_, _, ok := ApplyBest(nw, cands, 2, func(*Network, Rewiring) (int, bool) { return 0, false }, func(s, t int) bool { return s < t })
	if ok {
		t.Fatal("ApplyBest applied a rejected candidate")
	}
	if len(nw.ChangedInputs(orig)) != 0 || len(nw.Muxes) != len(orig.Muxes) {
		t.Fatal("ApplyBest changed the network without a winner")
	}
}
