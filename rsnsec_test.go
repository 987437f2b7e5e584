package rsnsec

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	ex := RunningExample()
	rep, err := Secure(ex.Network, ex.Circuit, ex.Internal, ex.Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secured || rep.TotalChanges() == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFacadeBuildAndRoundTrip(t *testing.T) {
	nw := NewNetwork("facade")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 3, m)
	b := nw.AddRegister("B", 2, m)
	nw.Connect(a, ScanIn)
	mx := nw.AddMux("M", RegRef(a), ScanIn)
	nw.Connect(b, MuxRef(mx))
	nw.ConnectOut(RegRef(b))
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteICL(&sb, nw, nil); err != nil {
		t.Fatal(err)
	}
	nw2, err := ParseICL(sb.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nw2.Stats() != nw.Stats() {
		t.Fatalf("round trip: %+v vs %+v", nw2.Stats(), nw.Stats())
	}
}

func TestFacadeSpecHelpers(t *testing.T) {
	s := NewSpec(2, 4)
	s.SetTrust(0, 3)
	s.SetAccepts(0, NewCatSet(3))
	if !s.Violates(0, 1) {
		t.Fatal("spec helpers broken")
	}
	if AllCats(4).Len() != 4 {
		t.Fatal("AllCats broken")
	}
	g := GenerateSpec(10, DefaultSpecGenConfig(), 3)
	if g.NumModules() != 10 {
		t.Fatal("GenerateSpec broken")
	}
}

func TestFacadeCatalogAndExperiments(t *testing.T) {
	if len(Catalog()) != 22 {
		t.Fatal("catalog size")
	}
	b, ok := BenchmarkByName("BasicSCB")
	if !ok {
		t.Fatal("BasicSCB missing")
	}
	cfg := QuickRunConfig()
	cfg.Circuits, cfg.Specs = 1, 2
	res, err := RunBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs+res.SkippedNoViolation+res.SkippedInsecureLogic+res.Errors != 2 {
		t.Fatal("accounting broken")
	}
}

func TestFacadeSimulators(t *testing.T) {
	n := NewNetlist()
	mod := n.AddModule("m")
	f := n.AddFF("f", mod)
	n.SetFFInput(f, n.FFs[f].Node)

	nw := NewNetwork("sim")
	nw.AddModule("m")
	r := nw.AddRegister("R", 1, 0)
	nw.Connect(r, ScanIn)
	nw.ConnectOut(RegRef(r))
	nw.SetCapture(r, 0, f)

	cs := NewCircuitSimulator(n)
	cs.SetFF(f, true)
	sim := NewNetworkSimulator(nw, cs)
	cfg := nw.NewConfig()
	if err := sim.Capture(cfg); err != nil {
		t.Fatal(err)
	}
	if !sim.ScanFF(r, 0) {
		t.Fatal("capture through facade failed")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	ex := RunningExample()
	an := NewAnalysis(ex.Network, ex.Circuit, ex.Internal, ex.Spec, Exact)
	if len(an.Violations(ex.Network)) == 0 {
		t.Fatal("analysis found no violations on the insecure example")
	}
	if len(an.InsecureLogic()) != 0 {
		t.Fatal("unexpected insecure logic")
	}
}

func TestFacadeGenerateCircuit(t *testing.T) {
	g := GenerateCircuit(CircuitGenConfig{
		ModuleNames:       []string{"a", "b"},
		PortFFs:           []int{3, 3},
		InternalFFs:       1,
		Inputs:            2,
		CrossEdges:        2,
		ReconvergenceRate: 0.2,
		Depth:             2,
	}, 9)
	if g.N.NumFFs() != 8 {
		t.Fatalf("FFs = %d", g.N.NumFFs())
	}
	if err := g.N.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVerify(t *testing.T) {
	ex := RunningExample()
	if Verify(ex.Network, ex.Circuit, ex.Spec).Secure {
		t.Fatal("insecure example passed verification")
	}
	rep, err := Secure(ex.Network, ex.Circuit, ex.Internal, ex.Spec, Options{})
	if err != nil || !rep.Secured {
		t.Fatal(err)
	}
	v := Verify(ex.Network, ex.Circuit, ex.Spec)
	if !v.Secure {
		t.Fatalf("secured example failed verification: %v", v.Counterexamples)
	}
	if v.Edges == 0 {
		t.Fatal("empty flow graph")
	}
}

func TestFacadeBenchFormat(t *testing.T) {
	g := GenerateCircuit(CircuitGenConfig{
		ModuleNames: []string{"m"}, PortFFs: []int{3}, InternalFFs: 1,
		Inputs: 2, CrossEdges: 0, Depth: 2,
	}, 4)
	var sb strings.Builder
	if err := WriteBench(&sb, g.N); err != nil {
		t.Fatal(err)
	}
	n2, err := ParseBench(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumFFs() != g.N.NumFFs() {
		t.Fatal("bench round trip lost flip-flops")
	}
}

func TestFacadeICLWithSpec(t *testing.T) {
	ex := RunningExample()
	var sb strings.Builder
	name := func(f FFID) string { return ex.Circuit.FFs[f].Name }
	if err := WriteICLWithSpec(&sb, ex.Network, ex.Spec, name); err != nil {
		t.Fatal(err)
	}
	var bench strings.Builder
	if err := WriteBench(&bench, ex.Circuit); err != nil {
		t.Fatal(err)
	}
	d, err := LoadICL(sb.String(), bench.String(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	nw, spec := d.Network, d.Spec
	if spec == nil || spec.NumCategories != ex.Spec.NumCategories {
		t.Fatal("spec lost")
	}
	if nw.Stats() != ex.Network.Stats() {
		t.Fatal("network changed")
	}
	// The flip-flops no link references are the example's internal ones.
	var got, want []string
	for _, f := range d.Internal {
		got = append(got, d.Circuit.FFs[f].Name)
	}
	for _, f := range ex.Internal {
		want = append(want, ex.Circuit.FFs[f].Name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("internal flip-flops %v, want %v", got, want)
	}
	// The reloaded problem must show the same violations.
	an := NewAnalysis(nw, d.Circuit, d.Internal, spec, Exact)
	if len(an.Violations(nw)) == 0 {
		t.Fatal("reloaded problem lost its violations")
	}
}

func TestFacadeIncrementalSession(t *testing.T) {
	ex := RunningExample()
	an, err := NewAnalysisOpts(ex.Network, ex.Circuit, ex.Internal, ex.Spec, Exact, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := SecureWithAnalysis(an, ex.Network.Clone(), Options{Mode: Exact})
	if err != nil {
		t.Fatal(err)
	}
	baseRep := SecureRunReport("test", "facade", Exact, ex.Network.Stats(), base, nil)

	script, err := ParseEditScript([]byte(
		`{"ops":[{"op":"add-register","pin":"R0","src":"SI","name":"dx","len":1,"module":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !script.AddsRegisters() {
		t.Fatal("AddsRegisters lost through the facade")
	}
	res, err := SecureDelta("test", "facade", an, ex.Network, script, Options{Mode: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Structural {
		t.Fatal("add-register delta not flagged structural")
	}

	hash, err := script.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDeltaDoc("", "", hash, len(script.Ops), baseRep, res.Report)
	var buf bytes.Buffer
	if err := WriteDeltaDoc(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := ReadDeltaDoc(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Schema != DeltaReportSchema || doc2.Diff == nil {
		t.Fatalf("delta doc round trip: %+v", doc2)
	}
	if d := CompareRunReports(baseRep, res.Report); d == nil {
		t.Fatal("CompareRunReports returned nil")
	}

	// Snapshot round trip through the facade seam.
	snap, err := res.Analysis.Snapshot(res.Derived)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := ReadAnalysisSnapshot(res.Derived, snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Analysis.Restore(snap2); err != nil {
		t.Fatal(err)
	}
	// A wiring-only script must NOT be structural and must reuse the
	// caller's analysis.
	wiring := &EditScript{Ops: []EditOp{{Op: OpCutReconnect, Pin: "R0", Src: "R1"}}}
	if res2, err := SecureDelta("test", "facade", an, ex.Network, wiring, Options{Mode: Exact}); err == nil {
		if res2.Structural || res2.Analysis != an {
			t.Fatal("wiring-only delta did not reuse the analysis")
		}
	}
}

func TestFacadeRolesAndExplain(t *testing.T) {
	b, _ := BenchmarkByName("BasicSCB")
	nw := b.Build(1)
	att := AttachCircuit(nw, DefaultCircuitConfig(), 2)
	spec := GenerateSpecWithRoles(len(nw.Modules), att.DataSources, DefaultSpecGenConfig(), 7)
	an := NewAnalysis(nw, att.Circuit, att.Internal, spec, Exact)
	if len(an.InsecureModulePairs()) > 0 {
		t.Skip("seed produced insecure logic; explanation path covered elsewhere")
	}
	for _, e := range an.ExplainAll(nw) {
		if len(e.Steps) == 0 || e.String() == "" {
			t.Fatal("degenerate explanation")
		}
	}
}
