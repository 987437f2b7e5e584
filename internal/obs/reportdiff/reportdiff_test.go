package reportdiff

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func report(muts ...func(*obs.RunReport)) *obs.RunReport {
	r := &obs.RunReport{
		Schema: obs.ReportSchema,
		Tool:   "rsnbench",
		Benchmarks: []obs.BenchmarkReport{
			{Name: "BasicSCB", Runs: 4, AvgPureChanges: 2, AvgTotalChanges: 5, AvgTotalNS: 1000},
			{Name: "Mingle", Runs: 2, AvgTotalChanges: 3},
		},
		Stages: []obs.StageReport{
			{Name: "one-cycle", WallNS: 100, Queries: 640},
			{Name: "resolve", WallNS: 50, Items: 12},
		},
	}
	for _, m := range muts {
		m(r)
	}
	r.ComputeTotals()
	return r
}

func TestCompareEqual(t *testing.T) {
	d := Compare(report(), report())
	if !d.Empty() {
		t.Fatalf("identical reports differ: %s", d)
	}
	if d.String() != "reports agree" {
		t.Fatalf("String() = %q", d.String())
	}
}

func TestCompareDeltasSortedByRel(t *testing.T) {
	newR := report(func(r *obs.RunReport) {
		r.Benchmarks[0].AvgTotalChanges = 6    // +20%
		r.Benchmarks[0].AvgTotalNS = 3000      // +200%
		r.Stages[1].WallNS = 55                // +10%
		r.Benchmarks[1].AvgHybridChanges = 0.5 // 0 -> 0.5, +Inf
	})
	d := Compare(report(), newR)
	if len(d.Added)+len(d.Removed) != 0 {
		t.Fatalf("spurious added/removed: %+v", d)
	}
	if len(d.Deltas) != 4 {
		t.Fatalf("%d deltas, want 4: %s", len(d.Deltas), d)
	}
	if d.Deltas[0].Path != "benchmark/Mingle/avg_hybrid_changes" || !math.IsInf(d.Deltas[0].Rel(), 1) {
		t.Fatalf("first delta: %+v", d.Deltas[0])
	}
	// Analysis deltas rank before every timing delta, however large.
	if d.Deltas[1].Path != "benchmark/BasicSCB/avg_total_changes" {
		t.Fatalf("second delta: %+v", d.Deltas[1])
	}
	if d.Deltas[2].Path != "benchmark/BasicSCB/avg_total_ns" {
		t.Fatalf("third delta: %+v", d.Deltas[2])
	}
	if d.Deltas[3].Path != "stage/resolve/wall_ns" {
		t.Fatalf("last delta: %+v", d.Deltas[3])
	}
}

// TestCompareTimingOrderIsStable checks that timing deltas are listed
// by path: two diffs whose timings differ only in size give the same
// order, where ranking by relative change would swap them.
func TestCompareTimingOrderIsStable(t *testing.T) {
	paths := func(totalNS, wallNS int64) []string {
		d := Compare(report(), report(func(r *obs.RunReport) {
			r.Benchmarks[0].AvgTotalNS = totalNS
			r.Stages[0].WallNS = wallNS
			r.Stages[1].WallNS = 51
			r.Benchmarks[0].AvgPureChanges = 3
		}))
		var out []string
		for _, dd := range d.Deltas {
			out = append(out, dd.Path)
		}
		return out
	}
	a, b := paths(1010, 300), paths(5000, 101)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("timing sizes reorder the diff:\n%v\n%v", a, b)
	}
	if a[0] != "benchmark/BasicSCB/avg_pure_changes" {
		t.Fatalf("analysis delta not first: %v", a)
	}
}

func TestCompareAddedRemoved(t *testing.T) {
	newR := report(func(r *obs.RunReport) {
		r.Benchmarks[1].Name = "TreeFlat"
		r.Stages = r.Stages[:1]
	})
	d := Compare(report(), newR)
	if len(d.Added) != 1 || d.Added[0] != "benchmark/TreeFlat" {
		t.Fatalf("added: %v", d.Added)
	}
	want := map[string]bool{"benchmark/Mingle": true, "stage/resolve": true}
	if len(d.Removed) != 2 || !want[d.Removed[0]] || !want[d.Removed[1]] {
		t.Fatalf("removed: %v", d.Removed)
	}
}

func TestFilter(t *testing.T) {
	newR := report(func(r *obs.RunReport) {
		r.Benchmarks[0].AvgTotalChanges = 5.5 // +10%
		r.Stages[0].WallNS = 300              // +200%
	})
	d := Compare(report(), newR).Filter(0.5)
	if len(d.Deltas) != 1 || d.Deltas[0].Path != "stage/one-cycle/wall_ns" {
		t.Fatalf("filtered deltas: %+v", d.Deltas)
	}
}

func TestStringAligned(t *testing.T) {
	newR := report(func(r *obs.RunReport) { r.Benchmarks[0].Runs = 5 })
	s := Compare(report(), newR).String()
	if !strings.Contains(s, "benchmark/BasicSCB/runs") || !strings.Contains(s, "+25.00%") {
		t.Fatalf("rendered diff: %q", s)
	}
}
