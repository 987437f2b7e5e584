package obs

import (
	"bytes"
	"strings"
	"testing"
)

func sampleReport() *RunReport {
	r := &RunReport{
		Schema: ReportSchema,
		Tool:   "rsnbench",
		Config: ReportConfig{Table: "main", Mode: "exact", Seed: 1, Circuits: 2, Specs: 4, TargetScanFFs: 60},
		Benchmarks: []BenchmarkReport{
			{Name: "BasicSCB", Family: "Bastion", Registers: 12, ScanFFs: 60, Muxes: 6,
				Runs: 3, AvgViolatingRegs: 2.5, AvgPureChanges: 2, AvgHybridChanges: 1, AvgTotalChanges: 3,
				AvgDepNS: 5e6, AvgTotalNS: 6e6},
			{Name: "Mingle", Family: "Mingle", Registers: 20, ScanFFs: 80, Muxes: 9,
				Runs: 2, Errors: 1, AvgPureChanges: 1, AvgTotalChanges: 4},
		},
		Stages: []StageReport{
			{Name: "one-cycle", WallNS: 4e6, Calls: 2, Queries: 640},
			{Name: "resolve", WallNS: 1e6, Calls: 2, Queries: 7, Items: 30},
		},
	}
	r.ComputeTotals()
	return r
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := WriteDoc(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDoc[RunReport](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Totals != r.Totals || len(got.Benchmarks) != 2 || len(got.Stages) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Benchmarks[0] != r.Benchmarks[0] || got.Stages[1] != r.Stages[1] {
		t.Fatal("rows differ after round trip")
	}
}

func TestComputeTotals(t *testing.T) {
	r := sampleReport()
	tt := r.Totals
	if tt.Benchmarks != 2 || tt.Runs != 5 || tt.Errors != 1 {
		t.Fatalf("counts: %+v", tt)
	}
	if tt.SumAvgPureChanges != 3 || tt.SumAvgTotalChanges != 7 {
		t.Fatalf("change sums: %+v", tt)
	}
	if tt.StageWallNS != 5e6 {
		t.Fatalf("stage wall: %d", tt.StageWallNS)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RunReport)
		want   string
	}{
		{"wrong schema", func(r *RunReport) { r.Schema = "rsnsec.run-report/v0" }, "schema"},
		{"missing tool", func(r *RunReport) { r.Tool = "" }, "missing tool"},
		{"empty benchmark name", func(r *RunReport) { r.Benchmarks[0].Name = "" }, "empty name"},
		{"duplicate benchmark", func(r *RunReport) { r.Benchmarks[1].Name = "BasicSCB" }, "duplicate benchmark"},
		{"negative counter", func(r *RunReport) { r.Benchmarks[0].Runs = -1; r.ComputeTotals() }, "negative"},
		{"negative average", func(r *RunReport) { r.Benchmarks[0].AvgTotalChanges = -1; r.ComputeTotals() }, "negative average"},
		{"duplicate stage", func(r *RunReport) { r.Stages[1].Name = "one-cycle" }, "duplicate stage"},
		{"negative stage counter", func(r *RunReport) { r.Stages[0].Queries = -1 }, "negative counter"},
		{"stale totals", func(r *RunReport) { r.Totals.Runs++ }, "inconsistent"},
	}
	for _, c := range cases {
		r := sampleReport()
		c.mutate(r)
		err := r.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a bad report", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateIgnoresStartedAt(t *testing.T) {
	r := sampleReport()
	r.StartedAt = "2026-08-06T00:00:00Z"
	if err := r.Validate(); err != nil {
		t.Fatalf("wall-clock stamp must not affect validity: %v", err)
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	if _, err := ReadDoc[RunReport](strings.NewReader("not json")); err == nil {
		t.Fatal("parsed garbage")
	}
	if _, err := ReadDoc[RunReport](strings.NewReader(`{"schema":"bogus","tool":"x","config":{},"totals":{}}`)); err == nil {
		t.Fatal("accepted unknown schema")
	}
}
