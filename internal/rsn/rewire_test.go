package rsn_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/rsn"
)

// sameWiring fails unless the two networks have the same register
// inputs, the same muxes (names and inputs) and the same scan-out
// source.
func sameWiring(t *testing.T, ctx string, got, want *rsn.Network) {
	t.Helper()
	if len(got.ChangedInputs(want)) != 0 || len(got.Muxes) != len(want.Muxes) {
		t.Fatalf("%s: wirings differ: %v", ctx, got.ChangedInputs(want))
	}
	for m := range want.Muxes {
		if got.Muxes[m].Name != want.Muxes[m].Name {
			t.Fatalf("%s: mux M%d named %q, reference %q", ctx, m, got.Muxes[m].Name, want.Muxes[m].Name)
		}
	}
}

// TestRewireMatchesReference applies every candidate AppendCandidates
// lists (all pure-path predecessors and the scan-in port, for every
// register) with Rewire and with the former Rewire, whose re-attachment
// searched for a pure-path successor first. On the catalog networks at
// about 120 scan flip-flops and on the random-network generator both
// must record the same Rewiring and leave the same wiring and mux
// names.
func TestRewireMatchesReference(t *testing.T) {
	var nets []*rsn.Network
	for _, b := range bench.Catalog() {
		nets = append(nets, b.Build(b.ScaleForTarget(120)))
	}
	rng := rand.New(rand.NewSource(29))
	for range 300 {
		nets = append(nets, bench.RandomNetwork(rng, 2+rng.Intn(14)))
	}
	all := func(int) bool { return true }
	reattached := 0
	for _, nw := range nets {
		for y := range nw.Registers {
			cands := rsn.AppendCandidates(nil, y, nw.PurePredecessors(y, new(rsn.Marks)), rsn.NoRef, len(nw.Registers), all)
			for _, c := range cands {
				ctx := nw.Name + " " + c.Pin.Elem.String() + "<-" + c.NewSrc.String()
				got, want := nw.Clone(), nw.Clone()
				grw, gerr := got.Rewire(c.Pin, c.NewSrc)
				wrw, werr := rsn.RewireReference(want, c.Pin, c.NewSrc)
				if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s: Rewire error %v, reference %v", ctx, gerr, werr)
				}
				if !slices.Equal(grw.Pins, wrw.Pins) || !slices.Equal(grw.Prev, wrw.Prev) || grw.Muxes != wrw.Muxes {
					t.Fatalf("%s: Rewiring %+v, reference %+v", ctx, grw, wrw)
				}
				sameWiring(t, ctx, got, want)
				if len(got.Muxes) > len(nw.Muxes) {
					reattached++
				}
			}
		}
	}
	if reattached == 0 {
		t.Fatal("no candidate re-attached a dangling source")
	}
}
