package exp

import (
	"math"
	"testing"
)

// sumOf recovers the integer total behind an average over runs.
func sumOf(avg float64, runs int) int { return int(math.Round(avg * float64(runs))) }

// TestRunBenchmarkGolden pins the non-runtime columns of the quick
// protocol on two catalog benchmarks, so a change to how the protocol
// sequences the method's stages cannot silently move a Table I row.
func TestRunBenchmarkGolden(t *testing.T) {
	type row struct {
		runs, skipSecure, skipLogic, errors int
		viol, pure, hybrid, total           int // sums over measured runs
	}
	want := map[string]row{
		"BasicSCB": {runs: 10, skipSecure: 13, skipLogic: 1, viol: 51, pure: 26, hybrid: 24, total: 50},
		"TreeFlat": {runs: 19, skipSecure: 1, skipLogic: 4, viol: 130, pure: 86, hybrid: 114, total: 200},
	}
	for name, w := range want {
		t.Run(name, func(t *testing.T) {
			res, err := RunBenchmark(mustBench(t, name), QuickRunConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := row{
				runs: res.Runs, skipSecure: res.SkippedNoViolation,
				skipLogic: res.SkippedInsecureLogic, errors: res.Errors,
				viol:   sumOf(res.AvgViolatingRegs, res.Runs),
				pure:   sumOf(res.AvgPureChanges, res.Runs),
				hybrid: sumOf(res.AvgHybridChanges, res.Runs),
				total:  sumOf(res.AvgTotalChanges, res.Runs),
			}
			if got != w {
				t.Fatalf("got %+v, want %+v", got, w)
			}
		})
	}
}

// TestRunApproxGolden pins the Section IV-C comparison on BasicSCB.
func TestRunApproxGolden(t *testing.T) {
	res, err := RunApprox(mustBench(t, "BasicSCB"), QuickRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 9 || res.ExactChanges != 43 || res.ApproxChanges != 51 ||
		res.FalseInsecure != 2 || res.TotalSpecRuns != 24 {
		t.Fatalf("got runs=%d exact=%v approx=%v false-insecure=%d spec-runs=%d, want 9/43/51/2/24",
			res.Runs, res.ExactChanges, res.ApproxChanges, res.FalseInsecure, res.TotalSpecRuns)
	}
}
