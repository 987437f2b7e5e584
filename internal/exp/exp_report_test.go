package exp

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestBuildReportAgreesWithEngineStats pins the acceptance contract of
// rsnbench -report: the report's per-stage totals are exactly the
// engine's instrumentation (same stages, same wall times, same
// counters), and the benchmark rows mirror the measured results.
func TestBuildReportAgreesWithEngineStats(t *testing.T) {
	cfg := QuickRunConfig()
	stats := engine.NewStats()
	cfg.Stats = stats
	b := mustBench(t, "BasicSCB")
	res, err := RunBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rep := BuildReport("rsnbench", "main", cfg, []*Result{res, nil}, stats)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("%d benchmark rows (nil results must be skipped)", len(rep.Benchmarks))
	}

	snaps := stats.Snapshot()
	if len(rep.Stages) == 0 || len(rep.Stages) != len(snaps) {
		t.Fatalf("%d stage rows, engine has %d", len(rep.Stages), len(snaps))
	}
	var wall int64
	for i, s := range rep.Stages {
		sn := snaps[i]
		if s.Name != sn.Name {
			t.Fatalf("stage %d: %q != engine %q", i, s.Name, sn.Name)
		}
		if s.WallNS != sn.Wall.Nanoseconds() {
			t.Fatalf("stage %q: report wall %d != engine wall %d", s.Name, s.WallNS, sn.Wall.Nanoseconds())
		}
		if s.Calls != sn.Calls || s.Queries != sn.Queries || s.Items != sn.Items || s.Saved != sn.Saved {
			t.Fatalf("stage %q counters diverge: %+v vs %+v", s.Name, s, sn)
		}
		wall += s.WallNS
	}
	if rep.Totals.StageWallNS != wall {
		t.Fatalf("totals wall %d != stage sum %d", rep.Totals.StageWallNS, wall)
	}

	row := rep.Benchmarks[0]
	if row.Name != "BasicSCB" || row.Runs != res.Runs ||
		row.AvgTotalChanges != res.AvgTotalChanges || row.AvgDepNS != int64(res.AvgDepTime) {
		t.Fatalf("benchmark row diverges from result: %+v vs %+v", row, res)
	}
	if rep.Totals.Runs != res.Runs {
		t.Fatalf("totals runs %d != %d", rep.Totals.Runs, res.Runs)
	}

	// The serialized artifact round-trips through the validating reader.
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadDoc[obs.RunReport](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Totals != rep.Totals {
		t.Fatal("totals changed across serialization")
	}
}

// TestBuildReportDeterministic: identical runs produce byte-identical
// report rows (wall times differ run to run, so compare with stats
// detached).
func TestBuildReportDeterministic(t *testing.T) {
	cfg := QuickRunConfig()
	b := mustBench(t, "TreeFlat")
	r1, err := RunBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := BuildReport("rsnbench", "main", cfg, []*Result{r1}, nil)
	c := BuildReport("rsnbench", "main", cfg, []*Result{r2}, nil)
	ra, rc := a.Benchmarks[0], c.Benchmarks[0]
	// Zero the machine-bound timing fields; everything else must match.
	ra.AvgDepNS, ra.AvgPureNS, ra.AvgHybridNS, ra.AvgTotalNS = 0, 0, 0, 0
	rc.AvgDepNS, rc.AvgPureNS, rc.AvgHybridNS, rc.AvgTotalNS = 0, 0, 0, 0
	if ra != rc {
		t.Fatalf("same config produced different report rows:\n%+v\n%+v", ra, rc)
	}
}

// TestRunBenchmarkTraceHierarchy checks the spans a measured run emits:
// every circuit span is a child of the given parent, and stage spans
// nest under circuit spans.
func TestRunBenchmarkTraceHierarchy(t *testing.T) {
	sink := &obs.CollectorSink{}
	tracer := obs.NewTracer(sink)
	cfg := QuickRunConfig()
	cfg.Circuits = 2
	cfg.Specs = 4
	cfg.Tracer = tracer
	root := tracer.Start(nil, "run")
	cfg.TraceParent = root
	if _, err := RunBenchmark(mustBench(t, "BasicSCB"), cfg); err != nil {
		t.Fatal(err)
	}
	root.End()

	circuits := make(map[uint64]bool)
	for _, ev := range sink.Events() {
		if ev.Name == "circuit" {
			circuits[ev.Span] = true
			if ev.Parent != root.ID() {
				t.Fatalf("circuit span parented to %d, want run %d", ev.Parent, root.ID())
			}
		}
	}
	if len(circuits) != cfg.Circuits {
		t.Fatalf("%d circuit spans, want %d", len(circuits), cfg.Circuits)
	}
	stages := 0
	for _, ev := range sink.Events() {
		switch ev.Name {
		case "one-cycle", "bridge", "closure":
			if !circuits[ev.Parent] {
				t.Fatalf("stage span %q parented outside a circuit span: %+v", ev.Name, ev)
			}
			stages++
		}
	}
	if stages == 0 {
		t.Fatal("no stage spans recorded")
	}
}

// TestStageCallsPinned pins how often each stage runs in a quick
// BasicSCB protocol, so a stage opened twice or not at all fails. It
// also checks that every stage invocation is one span whose interval
// is what the engine stats record. propagate-delta counts 95 calls
// inside the resolvers plus the final no-violations check of
// core.Resolve in each of the 6 measured runs that applied a hybrid
// change (with no hybrid change, the cached fixed point already belongs
// to the final wiring).
func TestStageCallsPinned(t *testing.T) {
	want := map[string]int64{
		"one-cycle":       3,
		"sim-filter":      462,
		"bridge":          3,
		"closure":         3,
		"pure-resolve":    10,
		"propagate":       23,
		"propagate-delta": 101,
		"resolve":         10,
	}
	cfg := QuickRunConfig()
	stats := engine.NewStats()
	sink := &obs.CollectorSink{}
	cfg.Stats = stats
	cfg.Tracer = obs.NewTracer(sink)
	if _, err := RunBenchmark(mustBench(t, "BasicSCB"), cfg); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int64{}
	spanUS := map[string]int64{}
	for _, ev := range sink.Events() {
		spans[ev.Name]++
		spanUS[ev.Name] += ev.DurU
	}
	snap := stats.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("%d stages recorded, want %d: %+v", len(snap), len(want), snap)
	}
	for _, st := range snap {
		if st.Calls != want[st.Name] {
			t.Errorf("stage %q: %d calls, want %d", st.Name, st.Calls, want[st.Name])
		}
		if spans[st.Name] != st.Calls {
			t.Errorf("stage %q: %d spans for %d calls", st.Name, spans[st.Name], st.Calls)
		}
		// Spans truncate each duration to whole microseconds.
		if d := st.Wall.Microseconds() - spanUS[st.Name]; d < 0 || d > st.Calls {
			t.Errorf("stage %q: wall %v, spans sum to %dµs", st.Name, st.Wall, spanUS[st.Name])
		}
	}
}
