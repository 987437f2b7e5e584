package exp

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs/perfrec"
)

func smokeCollectConfig() RunConfig {
	cfg := QuickRunConfig()
	cfg.Circuits = 2
	cfg.Specs = 3
	cfg.TargetScanFFs = 60
	return cfg
}

func TestCollectBenchRecord(t *testing.T) {
	basic, ok := bench.ByName("BasicSCB")
	if !ok {
		t.Fatal("BasicSCB not in catalog")
	}
	cfg := smokeCollectConfig()
	// Depth-4 gate trees give some next-state cones more live leaves
	// than the truth-table cap, so exact mode still issues SAT calls.
	cfg.Circuit.Depth = 4
	rec, err := CollectBenchRecord(context.Background(), []bench.Benchmark{basic}, cfg,
		CollectOptions{Reps: 2, Commit: "testcommit"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("collected record invalid: %v", err)
	}
	if rec.Reps != 2 || rec.Tool != "rsnbench" {
		t.Errorf("header = reps %d tool %q", rec.Reps, rec.Tool)
	}
	if rec.Env.Commit != "testcommit" || rec.Env.GOMAXPROCS < 1 {
		t.Errorf("environment fingerprint: %+v", rec.Env)
	}
	if len(rec.Benchmarks) != 1 || rec.Benchmarks[0].Name != "BasicSCB" {
		t.Fatalf("benchmarks = %+v", rec.Benchmarks)
	}
	b := rec.Benchmarks[0]
	if b.Runs <= 0 || b.ScanFFs <= 0 {
		t.Errorf("runs %d, scan FFs %d", b.Runs, b.ScanFFs)
	}
	if len(b.Stages) == 0 {
		t.Fatal("no stages collected")
	}
	seen := map[string]perfrec.Stage{}
	for _, st := range b.Stages {
		if len(st.SamplesNS) != 2 {
			t.Errorf("stage %s has %d samples, want 2", st.Name, len(st.SamplesNS))
		}
		seen[st.Name] = st
	}
	// The core pipeline stages must be present with real span-derived
	// wall time (one-cycle SAT sweeps and resolution always run).
	for _, name := range []string{"one-cycle", "pure-resolve", "resolve", "propagate"} {
		st, ok := seen[name]
		if !ok {
			t.Errorf("stage %q missing from record (have %v)", name, stageNames(b.Stages))
			continue
		}
		if st.MedianNS <= 0 {
			t.Errorf("stage %q median is %d, want > 0", name, st.MedianNS)
		}
	}
	if b.SATQueries <= 0 || b.SATDecisions <= 0 {
		t.Errorf("SAT counters not collected: queries %d decisions %d", b.SATQueries, b.SATDecisions)
	}
	// The one-cycle stage carries the resolution-path split: the
	// prefilter witnesses most leaves, SAT decides the rest.
	if oc := seen["one-cycle"]; oc.SimResolved <= 0 || oc.SATResolved != b.SATQueries {
		t.Errorf("one-cycle split = sim %d / sat %d (sat_queries %d)",
			oc.SimResolved, oc.SATResolved, b.SATQueries)
	}
	if b.HeapAllocPeakBytes <= 0 || b.TotalAllocBytes <= 0 {
		t.Errorf("memory stats not collected: peak %d total %d", b.HeapAllocPeakBytes, b.TotalAllocBytes)
	}
	// A self-comparison of the collected record must pass the gate.
	if regs := perfrec.Compare(rec, rec, perfrec.Limits{}); len(regs) != 0 {
		t.Errorf("self-comparison flagged: %s", perfrec.FormatRegressions(regs))
	}
}

func TestCollectBenchRecordCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	basic, _ := bench.ByName("BasicSCB")
	_, err := CollectBenchRecord(ctx, []bench.Benchmark{basic}, smokeCollectConfig(),
		CollectOptions{Reps: 1})
	if err == nil {
		t.Fatal("canceled collection returned no error")
	}
}

func stageNames(stages []perfrec.Stage) []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	return names
}

func TestCollectBenchRecordAttackAnnex(t *testing.T) {
	basic, ok := bench.ByName("BasicSCB")
	if !ok {
		t.Fatal("BasicSCB not in catalog")
	}
	cfg := smokeCollectConfig()
	cfg.Circuits = 1
	cfg.Specs = 1
	cfg.TargetScanFFs = 30
	rec, err := CollectBenchRecord(context.Background(), []bench.Benchmark{basic}, cfg,
		CollectOptions{Reps: 2, AttackKeyBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := rec.Benchmarks[0].Attack
	if a == nil {
		t.Fatal("attack annex not collected")
	}
	if a.KeyBits != 4 || a.Dynamic {
		t.Errorf("annex shape: %+v", a)
	}
	names := map[string]perfrec.Stage{}
	for _, st := range a.Stages {
		names[st.Name] = st
	}
	for _, want := range []string{"attack-sat", "attack-flush"} {
		st, ok := names[want]
		if !ok {
			t.Errorf("attack stage %q missing", want)
			continue
		}
		if st.Reps != 2 || st.MedianNS <= 0 {
			t.Errorf("attack stage %q: reps %d median %d", want, st.Reps, st.MedianNS)
		}
	}
	if a.SATIterations < 1 {
		t.Errorf("sat_iterations %d, want >= 1", a.SATIterations)
	}
	// The attack stages live only in the annex, not among the pipeline
	// stages.
	for _, st := range rec.Benchmarks[0].Stages {
		if st.Name == "attack-sat" || st.Name == "attack-flush" {
			t.Errorf("attack stage %q leaked into the pipeline stages", st.Name)
		}
	}
	if regs := perfrec.Compare(rec, rec, perfrec.Limits{}); len(regs) != 0 {
		t.Errorf("self-comparison flagged: %s", perfrec.FormatRegressions(regs))
	}
}
