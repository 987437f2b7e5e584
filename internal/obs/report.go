package obs

import (
	"fmt"
	"io"
)

// ReportSchema is the run-report schema identifier. Bump the suffix on
// any incompatible field change; readers reject unknown versions so a
// regression pipeline never silently mis-parses an old artifact.
const ReportSchema = "rsnsec.run-report/v1"

// RunReport is the machine-readable outcome of one experimental run —
// the data behind the bench_tables.txt trajectory: the protocol
// configuration, one row per benchmark with the measured averages of
// Table I, and the engine's per-stage instrumentation totals.
type RunReport struct {
	Schema string `json:"schema"`
	// Tool identifies the producer (e.g. "rsnbench").
	Tool string `json:"tool"`
	// StartedAt is an optional RFC3339 wall-clock stamp. It is excluded
	// from Validate so reports stay byte-comparable in tests.
	StartedAt string `json:"started_at,omitempty"`
	// Config echoes the protocol parameters the run used.
	Config ReportConfig `json:"config"`
	// Benchmarks holds one row per analyzed benchmark.
	Benchmarks []BenchmarkReport `json:"benchmarks"`
	// Stages holds the engine's per-stage totals across the whole run.
	Stages []StageReport `json:"stages,omitempty"`
	// Totals aggregates the benchmark rows.
	Totals ReportTotals `json:"totals"`
}

// ReportConfig echoes the experimental protocol parameters.
type ReportConfig struct {
	Table         string  `json:"table,omitempty"`
	Mode          string  `json:"mode"`
	Seed          int64   `json:"seed"`
	Circuits      int     `json:"circuits"`
	Specs         int     `json:"specs"`
	TargetScanFFs int     `json:"target_scan_ffs"`
	Scale         float64 `json:"scale"`
	Workers       int     `json:"workers"`
}

// BenchmarkReport is one benchmark's measured row (Table I).
type BenchmarkReport struct {
	Name   string `json:"name"`
	Family string `json:"family"`

	Registers int `json:"registers"`
	ScanFFs   int `json:"scan_ffs"`
	Muxes     int `json:"muxes"`

	FullRegisters int `json:"full_registers"`
	FullScanFFs   int `json:"full_scan_ffs"`
	FullMuxes     int `json:"full_muxes"`

	Runs                 int `json:"runs"`
	SkippedSecure        int `json:"skipped_secure"`
	SkippedInsecureLogic int `json:"skipped_insecure_logic"`
	Errors               int `json:"errors"`

	AvgViolatingRegs float64 `json:"avg_violating_regs"`
	AvgPureChanges   float64 `json:"avg_pure_changes"`
	AvgHybridChanges float64 `json:"avg_hybrid_changes"`
	AvgTotalChanges  float64 `json:"avg_total_changes"`

	AvgDepNS    int64 `json:"avg_dep_ns"`
	AvgPureNS   int64 `json:"avg_pure_ns"`
	AvgHybridNS int64 `json:"avg_hybrid_ns"`
	AvgTotalNS  int64 `json:"avg_total_ns"`
}

// StageReport is one engine stage's totals (mirrors
// engine.StageSnapshot with JSON-stable field names).
type StageReport struct {
	Name    string `json:"name"`
	WallNS  int64  `json:"wall_ns"`
	Calls   int64  `json:"calls"`
	Queries int64  `json:"queries"`
	Items   int64  `json:"items"`
	Saved   int64  `json:"saved"`
}

// ReportTotals aggregates the benchmark rows.
type ReportTotals struct {
	Benchmarks int `json:"benchmarks"`
	Runs       int `json:"runs"`
	Errors     int `json:"errors"`
	// SumAvgPureChanges / SumAvgTotalChanges back the paper's
	// pure-vs-total change split (~43%).
	SumAvgPureChanges  float64 `json:"sum_avg_pure_changes"`
	SumAvgTotalChanges float64 `json:"sum_avg_total_changes"`
	// StageWallNS is the sum of all stage wall times.
	StageWallNS int64 `json:"stage_wall_ns"`
}

// ComputeTotals recomputes Totals from the benchmark and stage rows.
func (r *RunReport) ComputeTotals() {
	t := ReportTotals{Benchmarks: len(r.Benchmarks)}
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		t.Runs += b.Runs
		t.Errors += b.Errors
		t.SumAvgPureChanges += b.AvgPureChanges
		t.SumAvgTotalChanges += b.AvgTotalChanges
	}
	for i := range r.Stages {
		t.StageWallNS += r.Stages[i].WallNS
	}
	r.Totals = t
}

// Validate checks the report's structural invariants: the schema
// version, unique non-empty benchmark and stage names, non-negative
// counters, and totals consistent with the rows.
func (r *RunReport) Validate() error {
	if r == nil {
		return fmt.Errorf("report: nil")
	}
	if r.Schema != ReportSchema {
		return fmt.Errorf("report: schema %q, this reader wants %q", r.Schema, ReportSchema)
	}
	if r.Tool == "" {
		return fmt.Errorf("report: missing tool")
	}
	seen := make(map[string]bool)
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		if b.Name == "" {
			return fmt.Errorf("report: benchmark %d: empty name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("report: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		for _, c := range []struct {
			what string
			v    int64
		}{
			{"runs", int64(b.Runs)}, {"errors", int64(b.Errors)},
			{"skipped_secure", int64(b.SkippedSecure)},
			{"skipped_insecure_logic", int64(b.SkippedInsecureLogic)},
			{"registers", int64(b.Registers)}, {"scan_ffs", int64(b.ScanFFs)},
			{"avg_dep_ns", b.AvgDepNS}, {"avg_pure_ns", b.AvgPureNS},
			{"avg_hybrid_ns", b.AvgHybridNS}, {"avg_total_ns", b.AvgTotalNS},
		} {
			if c.v < 0 {
				return fmt.Errorf("report: benchmark %q: negative %s", b.Name, c.what)
			}
		}
		if b.AvgPureChanges < 0 || b.AvgHybridChanges < 0 || b.AvgTotalChanges < 0 || b.AvgViolatingRegs < 0 {
			return fmt.Errorf("report: benchmark %q: negative average", b.Name)
		}
	}
	seenStage := make(map[string]bool)
	for i := range r.Stages {
		s := &r.Stages[i]
		if s.Name == "" {
			return fmt.Errorf("report: stage %d: empty name", i)
		}
		if seenStage[s.Name] {
			return fmt.Errorf("report: duplicate stage %q", s.Name)
		}
		seenStage[s.Name] = true
		if s.WallNS < 0 || s.Calls < 0 || s.Queries < 0 || s.Items < 0 || s.Saved < 0 {
			return fmt.Errorf("report: stage %q: negative counter", s.Name)
		}
	}
	var want RunReport
	want.Benchmarks = r.Benchmarks
	want.Stages = r.Stages
	want.ComputeTotals()
	if r.Totals != want.Totals {
		return fmt.Errorf("report: totals %+v inconsistent with rows (want %+v)", r.Totals, want.Totals)
	}
	return nil
}

// WriteReport is WriteDoc for a run report; the perfbench module calls
// it.
func WriteReport(w io.Writer, r *RunReport) error { return WriteDoc(w, r) }
