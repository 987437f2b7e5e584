// Package reportdiff compares two machine-readable run reports
// (obs.RunReport) and surfaces the regression deltas: per-benchmark
// change counts and stage runtimes that moved between two runs of the
// protocol. It backs `rsnbench -diff-report old.json,new.json` and CI
// trend checks over uploaded report artifacts.
package reportdiff

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Delta is one numeric field that differs between the two reports.
type Delta struct {
	// Path locates the field, e.g. "benchmark/BasicSCB/avg_total_changes"
	// or "stage/closure/wall_ns".
	Path string  `json:"path"`
	Old  float64 `json:"old"`
	New  float64 `json:"new"`
}

// Rel returns the relative change (new-old)/old; +Inf when old is zero
// and new is not.
func (d Delta) Rel() float64 {
	if d.Old == 0 {
		if d.New == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (d.New - d.Old) / d.Old
}

// Diff is the comparison outcome.
type Diff struct {
	// Added and Removed list benchmarks/stages present in only one
	// report, prefixed like Delta paths ("benchmark/X", "stage/y").
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
	// Deltas lists the changed numeric fields: the analysis fields
	// first, largest |Rel| first, then the wall-clock timing fields
	// (paths ending in "_ns") by path, so timing noise neither leads
	// the list nor reorders it between identical runs.
	Deltas []Delta `json:"deltas,omitempty"`
}

// Empty reports whether the two reports agree on every compared field.
func (d *Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Deltas) == 0
}

// Filter returns a copy keeping only deltas with |Rel| >= minRel (the
// added/removed lists are kept verbatim).
func (d *Diff) Filter(minRel float64) *Diff {
	out := &Diff{Added: d.Added, Removed: d.Removed}
	for _, dd := range d.Deltas {
		if math.Abs(dd.Rel()) >= minRel {
			out.Deltas = append(out.Deltas, dd)
		}
	}
	return out
}

// String renders the diff as an aligned human-readable table.
func (d *Diff) String() string {
	if d.Empty() {
		return "reports agree"
	}
	var sb strings.Builder
	for _, a := range d.Added {
		fmt.Fprintf(&sb, "added   %s\n", a)
	}
	for _, r := range d.Removed {
		fmt.Fprintf(&sb, "removed %s\n", r)
	}
	w := 0
	for _, dd := range d.Deltas {
		if len(dd.Path) > w {
			w = len(dd.Path)
		}
	}
	for _, dd := range d.Deltas {
		fmt.Fprintf(&sb, "%-*s  %14g -> %-14g  %+7.2f%%\n", w, dd.Path, dd.Old, dd.New, 100*dd.Rel())
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Compare diffs two reports field by field. Wall-clock times are
// compared like every other field but listed after the analysis
// fields, by path; callers typically Filter by a relative threshold
// before treating time deltas as regressions, since absolute runtimes
// are machine-bound.
func Compare(old, new *obs.RunReport) *Diff {
	d := &Diff{}
	oldB := make(map[string]*obs.BenchmarkReport, len(old.Benchmarks))
	for i := range old.Benchmarks {
		oldB[old.Benchmarks[i].Name] = &old.Benchmarks[i]
	}
	newB := make(map[string]*obs.BenchmarkReport, len(new.Benchmarks))
	for i := range new.Benchmarks {
		b := &new.Benchmarks[i]
		newB[b.Name] = b
		if _, ok := oldB[b.Name]; !ok {
			d.Added = append(d.Added, "benchmark/"+b.Name)
		}
	}
	for i := range old.Benchmarks {
		name := old.Benchmarks[i].Name
		if _, ok := newB[name]; !ok {
			d.Removed = append(d.Removed, "benchmark/"+name)
		}
	}
	for i := range old.Benchmarks {
		o := &old.Benchmarks[i]
		n, ok := newB[o.Name]
		if !ok {
			continue
		}
		p := "benchmark/" + o.Name + "/"
		d.add(p+"runs", float64(o.Runs), float64(n.Runs))
		d.add(p+"errors", float64(o.Errors), float64(n.Errors))
		d.add(p+"avg_violating_regs", o.AvgViolatingRegs, n.AvgViolatingRegs)
		d.add(p+"avg_pure_changes", o.AvgPureChanges, n.AvgPureChanges)
		d.add(p+"avg_hybrid_changes", o.AvgHybridChanges, n.AvgHybridChanges)
		d.add(p+"avg_total_changes", o.AvgTotalChanges, n.AvgTotalChanges)
		d.add(p+"avg_dep_ns", float64(o.AvgDepNS), float64(n.AvgDepNS))
		d.add(p+"avg_pure_ns", float64(o.AvgPureNS), float64(n.AvgPureNS))
		d.add(p+"avg_hybrid_ns", float64(o.AvgHybridNS), float64(n.AvgHybridNS))
		d.add(p+"avg_total_ns", float64(o.AvgTotalNS), float64(n.AvgTotalNS))
	}

	oldS := make(map[string]*obs.StageReport, len(old.Stages))
	for i := range old.Stages {
		oldS[old.Stages[i].Name] = &old.Stages[i]
	}
	newS := make(map[string]*obs.StageReport, len(new.Stages))
	for i := range new.Stages {
		s := &new.Stages[i]
		newS[s.Name] = s
		if _, ok := oldS[s.Name]; !ok {
			d.Added = append(d.Added, "stage/"+s.Name)
		}
	}
	for i := range old.Stages {
		o := &old.Stages[i]
		if _, ok := newS[o.Name]; !ok {
			d.Removed = append(d.Removed, "stage/"+o.Name)
			continue
		}
		n := newS[o.Name]
		p := "stage/" + o.Name + "/"
		d.add(p+"wall_ns", float64(o.WallNS), float64(n.WallNS))
		d.add(p+"calls", float64(o.Calls), float64(n.Calls))
		d.add(p+"queries", float64(o.Queries), float64(n.Queries))
		d.add(p+"items", float64(o.Items), float64(n.Items))
		d.add(p+"saved", float64(o.Saved), float64(n.Saved))
	}

	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Slice(d.Deltas, func(i, j int) bool {
		a, b := &d.Deltas[i], &d.Deltas[j]
		ta, tb := a.timing(), b.timing()
		if ta != tb {
			return !ta // analysis deltas first
		}
		if !ta {
			if ra, rb := math.Abs(a.Rel()), math.Abs(b.Rel()); ra != rb {
				return ra > rb
			}
		}
		return a.Path < b.Path
	})
	return d
}

// timing reports whether the delta is a wall-clock time, which differs
// between any two runs.
func (d *Delta) timing() bool { return strings.HasSuffix(d.Path, "_ns") }

// add records a delta when the values differ.
func (d *Diff) add(path string, old, new float64) {
	if old != new {
		d.Deltas = append(d.Deltas, Delta{Path: path, Old: old, New: new})
	}
}
