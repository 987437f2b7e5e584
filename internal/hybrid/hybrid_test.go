package hybrid

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/paperex"
	"repro/internal/pure"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

func newExampleAnalysis(t *testing.T, mode dep.Mode) (*paperex.Example, *Analysis) {
	t.Helper()
	e := paperex.New()
	a := NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, mode)
	return e, a
}

func TestAnalysisIndexing(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	if a.NumCircuitFFs() != 12 {
		t.Fatalf("circuit FFs = %d", a.NumCircuitFFs())
	}
	if a.Total() != 12+14 {
		t.Fatalf("total = %d", a.Total())
	}
	for r := 0; r < 5; r++ {
		for b := 0; b < e.Network.Registers[r].Len; b++ {
			idx := a.ScanIndex(r, b)
			rr, bb, ok := a.IsScanNode(idx)
			if !ok || rr != r || bb != b {
				t.Fatalf("IsScanNode(ScanIndex(%d,%d)) = (%d,%d,%v)", r, b, rr, bb, ok)
			}
			if a.NodeModule(idx) != e.Network.Registers[r].Module {
				t.Fatalf("module of scan node wrong")
			}
		}
	}
	if _, _, ok := a.IsScanNode(3); ok {
		t.Fatal("circuit node classified as scan node")
	}
}

func TestExampleDependencies(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	// After bridging IF1/IF2, F7 path-depends on F5 and only
	// structurally on F6 (the XOR reconvergence).
	f7, f5, f6 := int(e.F[6]), int(e.F[4]), int(e.F[5])
	if got := a.Clo.Kind(f7, f5); got != dep.Path {
		t.Errorf("F7 on F5 = %v, want path", got)
	}
	if got := a.Clo.Kind(f7, f6); got != dep.Structural {
		t.Errorf("F7 on F6 = %v, want structural", got)
	}
	// F9 likewise (Figure 3).
	f9 := int(e.F[8])
	if got := a.Clo.Kind(f9, f5); got != dep.Path {
		t.Errorf("F9 on F5 = %v, want path", got)
	}
	if got := a.Clo.Kind(f9, f6); got != dep.Structural {
		t.Errorf("F9 on F6 = %v, want structural", got)
	}
	// Internal flip-flops are bridged away.
	for _, k := range e.Internal {
		if a.Denoted[k] {
			t.Fatal("internal FF denoted")
		}
	}
	// Scan chains are preset: SF2 path-depends on SF1.
	if got := a.Base.Kind(a.ScanIndex(0, 1), a.ScanIndex(0, 0)); got != dep.Path {
		t.Errorf("preset SF2 on SF1 = %v", got)
	}
	if a.PresetDeps == 0 {
		t.Error("no preset dependencies recorded")
	}
}

func TestExampleNoInsecureLogic(t *testing.T) {
	_, a := newExampleAnalysis(t, dep.Exact)
	if pairs := a.InsecureLogic(); len(pairs) != 0 {
		t.Fatalf("unexpected insecure logic: %v (e.g. %s -> %s)", len(pairs),
			a.NodeName(pairs[0].Src), a.NodeName(pairs[0].Dst))
	}
}

func TestExampleViolationsBeforeAnyResolution(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	viols := a.Violations(e.Network)
	if len(viols) == 0 {
		t.Fatal("the insecure running example must have violations")
	}
	// F7 and F9 (untrusted circuit FFs fed from the hybrid path) and
	// SR4's scan flip-flops must be among them.
	want := map[int]bool{int(e.F[6]): false, int(e.F[8]): false, a.ScanIndex(e.SR[3], 0): false}
	for _, v := range viols {
		if _, ok := want[v.Node]; ok {
			want[v.Node] = true
		}
		if v.Missing != 0 {
			t.Errorf("missing category = %d, want 0 (untrusted trust)", v.Missing)
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("expected violation at %s", a.NodeName(n))
		}
	}
	vr := a.ViolatingRegisters(e.Network)
	if len(vr) != 1 || vr[0] != e.SR[3] {
		t.Errorf("violating registers = %v, want [SR4]", vr)
	}
}

// TestExampleFullPipeline mirrors the paper's flow: resolve pure
// violations first (Figure 4), then hybrid ones (Figure 5).
func TestExampleFullPipeline(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	nw := e.Network

	pres, err := pure.Resolve(nw, e.Spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Changes) == 0 {
		t.Fatal("the pure scan path violation must require changes")
	}
	if v := pure.ViolatingRegisters(nw, e.Spec); len(v) != 0 {
		t.Fatalf("pure violations remain: %v", v)
	}
	// The hybrid violation must remain after the pure stage (the
	// paper's central observation).
	hviols := a.Violations(nw)
	if len(hviols) == 0 {
		t.Fatal("hybrid violation should survive the pure stage")
	}

	hres, err := Resolve(a, nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(hres.Changes) == 0 {
		t.Fatal("hybrid resolution must apply changes")
	}
	if v := a.Violations(nw); len(v) != 0 {
		t.Fatalf("violations remain after hybrid resolution: %d", len(v))
	}
	if err := nw.Validate(); err != nil {
		t.Fatalf("network invalid after resolution: %v", err)
	}
	if len(nw.Registers) != 5 {
		t.Fatal("resolution must keep every scan register")
	}
	// As in Figure 5, the register updating F5 must no longer receive
	// crypto data: SR1 must not reach SR3 over pure paths.
	if nw.PureReaches(rsn.Reg(e.SR[0]), rsn.Reg(e.SR[2])) {
		t.Fatal("crypto register still reaches the update register of the hybrid path")
	}
}

func TestStructuralApproxFindsMoreViolations(t *testing.T) {
	e, aExact := newExampleAnalysis(t, dep.Exact)
	aApprox := NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.StructuralApprox)
	ve := aExact.Violations(e.Network)
	va := aApprox.Violations(e.Network)
	if len(va) < len(ve) {
		t.Fatalf("approx found fewer violations (%d) than exact (%d)", len(va), len(ve))
	}
	if aApprox.DepStats.SATCalls != 0 {
		t.Fatal("approx mode must not call SAT")
	}
	if aExact.DepStats.SATCalls == 0 {
		t.Fatal("exact mode must call SAT")
	}
}

// TestReconvergenceSecureUnderExact builds a network whose only
// cross-module circuit path is masked by a reconvergence: exact
// analysis reports no violation, the structural over-approximation a
// false positive (the paper's IV-C effect).
func TestReconvergenceSecureUnderExact(t *testing.T) {
	e := paperex.New()
	// Rewire F7 and F9 so the untrusted module sees only the masked
	// (structural-only) signal: F7' = XOR(IF2, XOR(IF2, F7)) == F7.
	c := e.Circuit
	n7 := c.FFs[e.F[6]].Node
	if2 := c.FFs[e.IF2].Node
	inner := c.AddGate(netlist.Xor, if2, n7)
	c.SetFFInput(e.F[6], c.AddGate(netlist.Xor, if2, inner))
	c.SetFFInput(e.F[8], c.FFs[e.F[8]].Node)

	// Remove every pure path into the untrusted register: SR4 now scans
	// in directly, and M2 routes SR5/SR3 to the scan-out port instead.
	e.Network.Connect(e.SR[3], rsn.ScanIn)
	e.Network.Muxes[e.M2].Inputs = []rsn.Ref{rsn.Reg(e.SR[4]), rsn.Reg(e.SR[2])}
	e.Network.ConnectOut(rsn.Mx(e.M2))
	if err := e.Network.Validate(); err != nil {
		t.Fatal(err)
	}

	aExact := NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact)
	if v := aExact.Violations(e.Network); len(v) != 0 {
		t.Fatalf("exact mode: unexpected violations: %d at %s", len(v), aExact.NodeName(v[0].Node))
	}
	aApprox := NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.StructuralApprox)
	if v := aApprox.Violations(e.Network); len(v) == 0 {
		t.Fatal("structural approximation should report a false positive here")
	}
}

func TestInsecureLogicDetection(t *testing.T) {
	e := paperex.New()
	// Wire the untrusted module directly to crypto state: F7' = F2.
	e.Circuit.SetFFInput(e.F[6], e.Circuit.FFs[e.F[1]].Node)
	a := NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact)
	pairs := a.InsecureLogic()
	if len(pairs) == 0 {
		t.Fatal("direct crypto-to-untrusted circuit path must be insecure logic")
	}
	mp := a.InsecureModulePairs()
	found := false
	for _, p := range mp {
		if p[0] == e.Crypto && p[1] == e.Untrusted {
			found = true
		}
	}
	if !found {
		t.Fatalf("module pairs = %v, want crypto->untrusted", mp)
	}
}

func TestResolveIdempotentOnSecureNetwork(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	nw := e.Network
	if _, err := pure.Resolve(nw, e.Spec, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(a, nw); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(a, nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Fatalf("second resolve applied %d changes", len(res.Changes))
	}
}

func TestChangeCostString(t *testing.T) {
	c := rsn.Change{Cut: rsn.Sink{Elem: rsn.Reg(2)}, OldSrc: rsn.Mx(0), NewSrc: rsn.ScanIn, NewMuxes: 1}
	if c.Cost() != 2 || c.String() == "" {
		t.Fatal("Change helpers broken")
	}
	// The changes the hybrid stage reports carry the same cost and
	// description as any other rsn.Change.
	e, a := newExampleAnalysis(t, dep.Exact)
	nw := e.Network
	if _, err := pure.Resolve(nw, e.Spec, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(a, nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) == 0 {
		t.Fatal("hybrid resolution must apply changes")
	}
	for _, ch := range res.Changes {
		if ch.Cost() != 1+ch.NewMuxes {
			t.Fatalf("%v: Cost = %d, want %d", ch, ch.Cost(), 1+ch.NewMuxes)
		}
		if ch.OldSrc == ch.NewSrc {
			t.Fatalf("%v: change keeps its source", ch)
		}
		if ch.String() == "" {
			t.Fatal("empty String")
		}
	}
}

func TestErrInsecureLogicError(t *testing.T) {
	e := &ErrInsecureLogic{Src: 1, Dst: 2, Name: "a -> b"}
	if e.Error() == "" {
		t.Fatal("empty error")
	}
}

func TestCompressedAttrsRoundTrip(t *testing.T) {
	attrs := []secspec.CatSet{
		secspec.AllCats(4), secspec.AllCats(4),
		secspec.NewCatSet(2, 3), secspec.NewCatSet(2, 3),
	}
	ra := CompressRegister(attrs)
	for i, want := range attrs {
		if got := ra.At(i); got != want {
			t.Fatalf("At(%d) = %v, want %v", i, got, want)
		}
	}
	// Uniform register.
	u := []secspec.CatSet{secspec.NewCatSet(1), secspec.NewCatSet(1)}
	ru := CompressRegister(u)
	if ru.ChangeAt != -1 || ru.At(0) != u[0] || ru.At(1) != u[1] {
		t.Fatal("uniform compression wrong")
	}
}

func TestCompressedAttrsSoundness(t *testing.T) {
	// With multiple changes the compressed form must be a sound
	// under-approximation (never claims more accepted categories).
	attrs := []secspec.CatSet{
		secspec.AllCats(4),
		secspec.NewCatSet(1, 2, 3),
		secspec.NewCatSet(2, 3),
		secspec.NewCatSet(3),
	}
	ra := CompressRegister(attrs)
	for i, exact := range attrs {
		got := ra.At(i)
		if got&^exact != 0 {
			t.Fatalf("At(%d) = %v claims categories beyond exact %v", i, got, exact)
		}
	}
}

func TestRegisterAttrsMatchPropagation(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	ras := a.RegisterAttrs(e.Network)
	if len(ras) != len(e.Network.Registers) {
		t.Fatalf("got %d register attrs", len(ras))
	}
	p := a.propagate(e.Network)
	for r := range ras {
		for b := 0; b < e.Network.Registers[r].Len; b++ {
			exact := p.attrIn[a.ScanIndex(r, b)]
			got := ras[r].At(b)
			if got&^exact != 0 {
				t.Fatalf("register %d bit %d: compressed %v beyond exact %v", r, b, got, exact)
			}
		}
	}
}

func BenchmarkAnalysisRunningExample(b *testing.B) {
	e := paperex.New()
	for i := 0; i < b.N; i++ {
		NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact)
	}
}

// BenchmarkNewAnalysisScale runs the fixed-infrastructure analysis of
// a 1000-flip-flop rsngen network with an attached circuit: one-cycle
// dependencies, presets, bridging and the closure at perfbench's scale
// size.
func BenchmarkNewAnalysisScale(b *testing.B) {
	nw, att := scaleDesign(b)
	spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewAnalysis(nw, att.Circuit, att.Internal, spec, dep.Exact)
	}
}

// TestInsecureModulePairsMatchLogic checks that the module pairs
// collected while walking the closure equal InsecureLogic deduplicated
// to module pairs and sorted, on catalog specifications with insecure
// circuit logic.
func TestInsecureModulePairsMatchLogic(t *testing.T) {
	cases := 0
	for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
		b, _ := bench.ByName(name)
		nw := b.Build(0.3)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 5)
		an := NewAnalysis(nw, att.Circuit, att.Internal, nil, dep.Exact)
		for seed := int64(0); seed < 16; seed++ {
			a := an.WithSpec(secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), seed))
			logic := a.InsecureLogic()
			if len(logic) == 0 {
				continue
			}
			cases++
			var want [][2]int
			for _, p := range logic {
				mp := [2]int{a.NodeModule(p.Src), a.NodeModule(p.Dst)}
				if !slices.Contains(want, mp) {
					want = append(want, mp)
				}
			}
			slices.SortFunc(want, func(x, y [2]int) int {
				if x[0] != y[0] {
					return x[0] - y[0]
				}
				return x[1] - y[1]
			})
			if got := a.InsecureModulePairs(); !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: InsecureModulePairs = %v, InsecureLogic gives %v", name, seed, got, want)
			}
		}
	}
	if cases == 0 {
		t.Fatal("no catalog specification with insecure logic")
	}
}

func BenchmarkViolationsRunningExample(b *testing.B) {
	e, a := func() (*paperex.Example, *Analysis) {
		e := paperex.New()
		return e, NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Violations(e.Network)
	}
}

func TestExplainViolation(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	viols := a.Violations(e.Network)
	if len(viols) == 0 {
		t.Fatal("no violations to explain")
	}
	// Explain the violation at F7 (untrusted circuit flip-flop).
	var target int = -1
	for _, v := range viols {
		if v.Node == int(e.F[6]) {
			target = v.Node
		}
	}
	if target < 0 {
		t.Fatal("F7 not violating")
	}
	ex, err := a.Explain(e.Network, target)
	if err != nil {
		t.Fatal(err)
	}
	if ex.CulpritModule != e.Crypto || ex.TargetModule != e.Untrusted {
		t.Fatalf("modules: %d -> %d", ex.CulpritModule, ex.TargetModule)
	}
	if ex.WiringHops == 0 {
		t.Fatal("the hybrid flow must cross reconfigurable wiring")
	}
	s := ex.String()
	if !strings.Contains(s, "wiring") || !strings.Contains(s, "F7") {
		t.Fatalf("explanation string uninformative: %s", s)
	}
	if len(ex.Steps) < 3 {
		t.Fatalf("flow too short: %v", ex.Steps)
	}
	if ex.Steps[0].Via != "" {
		t.Fatal("first step must be the origin")
	}
}

func TestExplainAll(t *testing.T) {
	e, a := newExampleAnalysis(t, dep.Exact)
	exps := a.ExplainAll(e.Network)
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	for _, ex := range exps {
		if !a.Spec.Violates(ex.CulpritModule, ex.TargetModule) {
			t.Fatalf("explanation for a non-violating pair %d->%d", ex.CulpritModule, ex.TargetModule)
		}
	}
}

func TestExplainInsecureLogic(t *testing.T) {
	e := paperex.New()
	// Untrusted module reads crypto state directly.
	e.Circuit.SetFFInput(e.F[6], e.Circuit.FFs[e.F[1]].Node)
	a := NewAnalysis(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact)
	ex, err := a.Explain(e.Network, int(e.F[6]))
	if err == nil {
		t.Fatal("expected ErrInsecureLogic")
	}
	if _, ok := err.(*ErrInsecureLogic); !ok {
		t.Fatalf("unexpected error type: %v", err)
	}
	if ex == nil || ex.WiringHops != 0 {
		t.Fatalf("explanation should still describe the fixed flow: %+v", ex)
	}
}

// TestAnalysisCancellation checks that a cancelled context aborts the
// pipeline construction with the context's error and no analysis.
func TestAnalysisCancellation(t *testing.T) {
	e := paperex.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := NewAnalysisOpts(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact, engine.Options{Context: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a != nil {
		t.Fatal("cancelled construction must not return an analysis")
	}
}

// TestAnalysisOptsStats checks that one full pipeline run records every
// engine stage with consistent counters.
func TestAnalysisOptsStats(t *testing.T) {
	e := paperex.New()
	stats := engine.NewStats()
	a, err := NewAnalysisOpts(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact, engine.Options{Stats: stats})
	if err != nil || a == nil {
		t.Fatalf("NewAnalysisOpts: %v", err)
	}
	a.Violations(e.Network) // the propagate stage runs on demand
	got := map[string]engine.StageSnapshot{}
	for _, st := range stats.Snapshot() {
		got[st.Name] = st
	}
	for _, name := range []string{"one-cycle", "bridge", "closure", "propagate"} {
		st, ok := got[name]
		if !ok {
			t.Fatalf("stage %q not recorded (have %v)", name, stats)
		}
		if st.Calls == 0 {
			t.Fatalf("stage %q recorded no calls", name)
		}
	}
	if got["one-cycle"].Queries != int64(a.DepStats.SATCalls) {
		t.Fatalf("one-cycle queries %d != SAT calls %d", got["one-cycle"].Queries, a.DepStats.SATCalls)
	}
}
