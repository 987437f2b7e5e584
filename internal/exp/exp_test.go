package exp

import (
	"testing"

	"repro/internal/bench"
)

func mustBench(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing", name)
	}
	return b
}

func TestRunBenchmarkBasicSCB(t *testing.T) {
	cfg := QuickRunConfig()
	res, err := RunBenchmark(mustBench(t, "BasicSCB"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Runs + res.SkippedNoViolation + res.SkippedInsecureLogic + res.Errors
	if total != cfg.Circuits*cfg.Specs {
		t.Fatalf("accounted runs %d != %d", total, cfg.Circuits*cfg.Specs)
	}
	if res.Errors != 0 {
		t.Fatalf("%d resolution errors", res.Errors)
	}
	if res.Runs == 0 {
		t.Fatal("no measured runs; generator/spec defaults too tame")
	}
	if res.AvgViolatingRegs <= 0 || res.AvgTotalChanges <= 0 {
		t.Fatalf("averages: viol=%v changes=%v", res.AvgViolatingRegs, res.AvgTotalChanges)
	}
	if d := res.AvgTotalChanges - (res.AvgPureChanges + res.AvgHybridChanges); d > 1e-9 || d < -1e-9 {
		t.Fatal("change averages inconsistent")
	}
	if res.AvgTotalTime <= 0 || res.AvgDepTime <= 0 {
		t.Fatal("runtimes not recorded")
	}
	if res.FullStats.Registers != 21 {
		t.Fatal("full stats wrong")
	}
}

func TestRunBenchmarkDeterministic(t *testing.T) {
	cfg := QuickRunConfig()
	b := mustBench(t, "TreeFlat")
	a, err := RunBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs != c.Runs || a.AvgViolatingRegs != c.AvgViolatingRegs ||
		a.AvgPureChanges != c.AvgPureChanges || a.AvgHybridChanges != c.AvgHybridChanges {
		t.Fatalf("same config produced different results: %+v vs %+v", a, c)
	}
}

func TestRunBenchmarkScaledLargeBenchmark(t *testing.T) {
	cfg := QuickRunConfig()
	cfg.Circuits = 1
	cfg.Specs = 4
	res, err := RunBenchmark(mustBench(t, "p93791"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaledStats.ScanFFs > 3*cfg.TargetScanFFs {
		t.Fatalf("scaled FFs = %d, target %d", res.ScaledStats.ScanFFs, cfg.TargetScanFFs)
	}
	if res.ScaledStats.Registers < 8 {
		t.Fatalf("scaled structure too small: %+v", res.ScaledStats)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
}

func TestRunBenchmarkRejectsBadConfig(t *testing.T) {
	cfg := QuickRunConfig()
	cfg.Circuits = 0
	if _, err := RunBenchmark(mustBench(t, "BasicSCB"), cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBridging(t *testing.T) {
	cfg := QuickRunConfig()
	res, err := RunBridging(mustBench(t, "Mingle"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FFsBridged >= res.FFsTotal {
		t.Fatalf("bridging removed nothing: %d -> %d", res.FFsTotal, res.FFsBridged)
	}
	if res.FFReduction() <= 0 || res.FFReduction() >= 1 {
		t.Fatalf("FF reduction = %v", res.FFReduction())
	}
	// Dependency reduction is typically positive (fewer denoted pairs).
	if res.DepReduction() < 0 {
		t.Logf("note: dependency count grew under bridging: %v", res.DepReduction())
	}
}

func TestRunApprox(t *testing.T) {
	cfg := QuickRunConfig()
	res, err := RunApprox(mustBench(t, "BasicSCB"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpecRuns != cfg.Circuits*cfg.Specs {
		t.Fatalf("examined %d of %d pairs", res.TotalSpecRuns, cfg.Circuits*cfg.Specs)
	}
	if res.Runs > 0 && res.ApproxChanges < res.ExactChanges {
		t.Fatalf("approximation needed fewer changes (%v < %v)", res.ApproxChanges, res.ExactChanges)
	}
	if r := res.FalseInsecureRate(); r < 0 || r > 1 {
		t.Fatalf("false insecure rate = %v", r)
	}
}

func TestEffectiveScale(t *testing.T) {
	cfg := DefaultRunConfig()
	small := mustBench(t, "BasicSCB") // 176 FFs < 350 target
	if s := cfg.EffectiveScale(small); s != 1 {
		t.Fatalf("small benchmark scale = %v, want 1", s)
	}
	big := mustBench(t, "p93791")
	if s := cfg.EffectiveScale(big); s >= 1 || s <= 0 {
		t.Fatalf("big benchmark scale = %v", s)
	}
	cfg.Scale = 0.5
	if s := cfg.EffectiveScale(big); s != 0.5 {
		t.Fatalf("explicit scale ignored: %v", s)
	}
}
