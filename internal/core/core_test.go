package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/netlist"
	"repro/internal/paperex"
	"repro/internal/rsn"
)

func TestSecureRunningExample(t *testing.T) {
	e := paperex.New()
	// One internal flip-flop with a cone above the truth-table cap, so
	// exact mode still issues SAT calls; bridging drops it unread.
	e.Internal = append(e.Internal, netlist.AddWideCone(e.Circuit, e.Misc, 13))
	var lines []string
	rep, err := Secure(e.Network, e.Circuit, e.Internal, e.Spec, Options{
		Mode: dep.Exact,
		Log:  func(f string, a ...any) { lines = append(lines, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secured || rep.InsecureLogic {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ViolatingRegsBefore == 0 {
		t.Fatal("the insecure example must report violating registers")
	}
	if rep.PureChanges == 0 || rep.HybridChanges == 0 {
		t.Fatalf("changes: pure=%d hybrid=%d; both stages must act", rep.PureChanges, rep.HybridChanges)
	}
	if rep.TotalChanges() != rep.PureChanges+rep.HybridChanges {
		t.Fatal("TotalChanges inconsistent")
	}
	if rep.DepStats.SATCalls == 0 || rep.PresetDeps == 0 {
		t.Fatal("dependency stats not populated")
	}
	if rep.Times.Total <= 0 {
		t.Fatal("times not populated")
	}
	if len(lines) == 0 {
		t.Fatal("log callback never invoked")
	}
	if len(e.Network.Registers) != 5 {
		t.Fatal("registers lost")
	}
}

func TestSecureDetectsInsecureLogic(t *testing.T) {
	e := paperex.New()
	// Untrusted module reads crypto state directly in the circuit.
	e.Circuit.SetFFInput(e.F[6], e.Circuit.FFs[e.F[1]].Node)
	before := e.Network.Clone()
	rep, err := Secure(e.Network, e.Circuit, e.Internal, e.Spec, Options{Mode: dep.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InsecureLogic || rep.Secured {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.InsecureModulePairs) == 0 {
		t.Fatal("module pairs missing")
	}
	// The network must be untouched.
	for i := range before.Registers {
		if before.Registers[i].In != e.Network.Registers[i].In {
			t.Fatal("network modified despite insecure logic")
		}
	}
}

func TestSecureAlreadySecureNetwork(t *testing.T) {
	e := paperex.New()
	// Loosen the spec completely.
	for m := range e.Spec.Trust {
		e.Spec.SetAccepts(m, 0xF)
	}
	rep, err := Secure(e.Network, e.Circuit, e.Internal, e.Spec, Options{Mode: dep.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secured || rep.TotalChanges() != 0 || rep.ViolatingRegsBefore != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestSecureStructuralApproxNeedsMoreChanges(t *testing.T) {
	eE := paperex.New()
	repE, err := Secure(eE.Network, eE.Circuit, eE.Internal, eE.Spec, Options{Mode: dep.Exact})
	if err != nil {
		t.Fatal(err)
	}
	eA := paperex.New()
	repA, err := Secure(eA.Network, eA.Circuit, eA.Internal, eA.Spec, Options{Mode: dep.StructuralApprox})
	if err != nil {
		t.Fatal(err)
	}
	if repA.TotalChanges() < repE.TotalChanges() {
		t.Fatalf("approx changes %d < exact changes %d", repA.TotalChanges(), repE.TotalChanges())
	}
}

func TestSecureRejectsInvalidNetwork(t *testing.T) {
	e := paperex.New()
	e.Network.Registers[0].In = rsn.NoRef
	_, err := Secure(e.Network, e.Circuit, e.Internal, e.Spec, Options{Mode: dep.Exact})
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("err = %v", err)
	}
}

// TestResolveCancelledInPureStage checks that the pure stage honours
// cancellation: with a cancelled context, Resolve on a network with
// pure-path violations fails in the pure stage and changes nothing.
func TestResolveCancelledInPureStage(t *testing.T) {
	e := paperex.New()
	if res, err := hybrid.ResolvePure(e.Network.Clone(), e.Spec, engine.Options{}); err != nil || res.ViolationsBefore == 0 {
		t.Fatal("the running example must have pure-path violations")
	}
	an := hybrid.NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	orig := e.Network.Clone()
	rep, err := Resolve(an, e.Network, Options{Mode: dep.Exact, Context: ctx})
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "core: pure stage: ") {
		t.Fatalf("err = %v, want the pure stage's context.Canceled", err)
	}
	if rep.PureChanges != 0 || len(e.Network.ChangedInputs(orig)) != 0 || len(e.Network.Muxes) != len(orig.Muxes) {
		t.Fatal("a cancelled run changed the network")
	}
}

// attack attempts the paper's attack scenario (Section II-D): capture
// the confidential bit F2 into the scan chain, shift it around under
// the given configuration, update it into the circuit and clock the
// functional logic. It reports whether the confidential bit reached the
// untrusted module's flip-flops.
func attack(e *paperex.Example, cfg rsn.Config, shifts int) bool {
	csim := netlist.NewSimulator(e.Circuit)
	csim.SetFF(e.F[1], true) // confidential datum in crypto's F2
	sim := rsn.NewSimulator(e.Network, csim)
	if err := sim.Capture(cfg); err != nil {
		return false
	}
	if _, err := sim.ShiftN(cfg, nil, shifts); err != nil {
		return false
	}
	if err := sim.Update(cfg); err != nil {
		return false
	}
	sim.ClockCircuit(4)
	// Did the bit land in any untrusted flip-flop?
	for _, f := range []netlist.FFID{e.F[6], e.F[7], e.F[8], e.F[9]} {
		if csim.FFValue(f) {
			return true
		}
	}
	// Or in the untrusted scan register after a final capture?
	if err := sim.Capture(cfg); err != nil {
		return false
	}
	for b := 0; b < e.Network.Registers[e.SR[3]].Len; b++ {
		if sim.ScanFF(e.SR[3], b) {
			return true
		}
	}
	return false
}

// allConfigs enumerates every mux configuration of the network.
func allConfigs(nw *rsn.Network) []rsn.Config {
	cfgs := []rsn.Config{nw.NewConfig()}
	for m := range nw.Muxes {
		var next []rsn.Config
		for _, c := range cfgs {
			for sel := 0; sel < len(nw.Muxes[m].Inputs); sel++ {
				cc := append(rsn.Config{}, c...)
				cc[m] = sel
				next = append(next, cc)
			}
		}
		cfgs = next
	}
	return cfgs
}

// TestAttackSimulation demonstrates the paper's threat end to end: the
// hybrid attack succeeds on the original network and no configuration
// or shift count leaks the confidential bit after the method secured
// the network.
func TestAttackSimulation(t *testing.T) {
	// Before: the hybrid attack works with M1 selecting SR1 so the
	// confidential bit shifts from SF2 into SF5, is updated into F5 and
	// travels through IF1/IF2 into the untrusted F7.
	e := paperex.New()
	cfg := e.Network.NewConfig()
	cfg[e.M1] = 0 // SR3 fed from SR1
	cfg[e.M2] = 0 // path continues over SR3
	if !attack(e, cfg, 1) {
		t.Fatal("hybrid attack must succeed on the insecure network")
	}

	// After: secure the network, then try every configuration and a
	// range of shift counts.
	e2 := paperex.New()
	rep, err := Secure(e2.Network, e2.Circuit, e2.Internal, e2.Spec, Options{Mode: dep.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secured {
		t.Fatal("not secured")
	}
	for _, cfg := range allConfigs(e2.Network) {
		for shifts := 0; shifts <= 14; shifts++ {
			if attack(e2, cfg, shifts) {
				t.Fatalf("attack succeeded on secured network (cfg=%v shifts=%d)", cfg, shifts)
			}
		}
	}
}

func BenchmarkSecureRunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := paperex.New()
		if _, err := Secure(e.Network, e.Circuit, e.Internal, e.Spec, Options{Mode: dep.Exact}); err != nil {
			b.Fatal(err)
		}
	}
}
