package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/obs/perfrec"
	"repro/internal/obs/reportdiff"
)

// docCase is one schema's codec check: a valid document, and edits
// that each make it invalid.
type docCase struct {
	schema string
	valid  func() obs.Doc
	read   func([]byte) (obs.Doc, error)
	breaks []func(obs.Doc)
}

func newDocCase[T any, P interface {
	*T
	obs.Doc
}](schema string, valid func() P, breaks ...func(P)) docCase {
	c := docCase{
		schema: schema,
		valid:  func() obs.Doc { return valid() },
		read:   func(data []byte) (obs.Doc, error) { return obs.ReadDoc[T, P](bytes.NewReader(data)) },
	}
	for _, b := range breaks {
		c.breaks = append(c.breaks, func(d obs.Doc) { b(d.(P)) })
	}
	return c
}

func runReport() *obs.RunReport {
	r := &obs.RunReport{
		Schema:     obs.ReportSchema,
		Tool:       "test",
		Config:     obs.ReportConfig{Mode: "exact", Seed: 1, Circuits: 1, Specs: 2},
		Benchmarks: []obs.BenchmarkReport{{Name: "TreeFlat", Family: "tree", Runs: 2, AvgPureChanges: 1, AvgTotalChanges: 3}},
		Stages:     []obs.StageReport{{Name: "one-cycle", WallNS: 40, Calls: 1}},
	}
	r.ComputeTotals()
	return r
}

var docCases = []docCase{
	newDocCase(obs.ReportSchema, runReport,
		func(r *obs.RunReport) { r.Schema = "rsnsec.run-report/v0" },
		func(r *obs.RunReport) { r.Totals.Runs++ },
		func(r *obs.RunReport) { r.Benchmarks = append(r.Benchmarks, r.Benchmarks[0]) }),
	newDocCase(perfrec.BenchSchema, func() *perfrec.Record {
		return &perfrec.Record{
			Schema: perfrec.BenchSchema, Tool: "test", Reps: 3,
			Benchmarks: []perfrec.Benchmark{{Name: "TreeFlat", ScanFFs: 30, Runs: 2,
				Stages: []perfrec.Stage{{Name: "closure", Reps: 3, MedianNS: 20, MADNS: 10, SamplesNS: []int64{10, 20, 30}}}}},
		}
	},
		func(r *perfrec.Record) { r.Schema = "rsnsec.bench-record/v0" },
		func(r *perfrec.Record) { r.Reps = 0 },
		func(r *perfrec.Record) { r.Benchmarks[0].Stages[0].MedianNS = 30 }),
	newDocCase(obfus.ReportSchema, func() *obfus.Report {
		return &obfus.Report{
			Schema: obfus.ReportSchema, Tool: "test",
			Network: obfus.NetworkInfo{Name: "TreeFlat", Registers: 3, ScanFFs: 12, Muxes: 2},
			Overlay: obfus.OverlayInfo{KeyBits: 4, XORGates: 2, MuxGates: 2},
			Horizon: 8,
			SAT:     &obfus.SATSection{Outcome: obfus.OutcomeRecovered, RecoveredKey: "0a", Verified: true, Iterations: 2},
			Flush:   &obfus.FlushSection{Applicable: true, Probes: 4, Equations: 4, Rank: 2, RecoveredBits: []int{0, 3}},
		}
	},
		func(r *obfus.Report) { r.Schema = "rsnsec.attack-report/v0" },
		func(r *obfus.Report) { r.Horizon = 0 },
		func(r *obfus.Report) { r.Flush.RecoveredBits = []int{4} }),
	newDocCase(reportdiff.DeltaSchema, func() *reportdiff.DeltaDoc {
		child := runReport()
		child.Benchmarks[0].AvgTotalChanges = 4
		child.ComputeTotals()
		return reportdiff.NewDeltaDoc("base", "key", "script", 1, runReport(), child)
	},
		func(d *reportdiff.DeltaDoc) { d.Schema = "rsnsec.delta-report/v0" },
		func(d *reportdiff.DeltaDoc) { d.ScriptHash = "" },
		func(d *reportdiff.DeltaDoc) { d.Report.Totals.Runs++ }),
}

// TestDocCodec runs every stored document schema through the codec:
// WriteDoc → ReadDoc gives the document back and re-encodes to the same
// bytes, the reader accepts an unknown field, and each invalid variant
// is refused by WriteDoc (which then writes nothing) and by ReadDoc.
func TestDocCodec(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range docCases {
		t.Run(c.schema, func(t *testing.T) {
			seen[c.schema] = true
			d := c.valid()
			var buf bytes.Buffer
			if err := obs.WriteDoc(&buf, d); err != nil {
				t.Fatalf("WriteDoc: %v", err)
			}
			data := buf.Bytes()
			if !bytes.HasSuffix(data, []byte("}\n")) || !bytes.Contains(data, []byte("\n  \"schema\": ")) {
				t.Errorf("not two-space indented JSON with a trailing newline:\n%s", data)
			}
			back, err := c.read(data)
			if err != nil {
				t.Fatalf("ReadDoc: %v", err)
			}
			if !reflect.DeepEqual(back, d) {
				t.Errorf("round trip changed the document:\n got %+v\nwant %+v", back, d)
			}
			var again bytes.Buffer
			if err := obs.WriteDoc(&again, back); err != nil || !bytes.Equal(again.Bytes(), data) {
				t.Errorf("re-encoding differs (err %v):\n%s\nvs\n%s", err, again.Bytes(), data)
			}
			extended := append([]byte(`{"x_newer_field": 1,`), data[1:]...)
			if _, err := c.read(extended); err != nil {
				t.Errorf("ReadDoc refused an unknown field: %v", err)
			}
			if _, err := c.read(data[:len(data)/2]); err == nil {
				t.Error("ReadDoc accepted a truncated document")
			}
			for i, brk := range c.breaks {
				bad := c.valid()
				brk(bad)
				var out bytes.Buffer
				if err := obs.WriteDoc(&out, bad); err == nil || out.Len() != 0 {
					t.Errorf("invalid variant %d: WriteDoc err %v, wrote %d bytes", i, err, out.Len())
				}
				raw, err := json.Marshal(bad)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.read(raw); err == nil {
					t.Errorf("invalid variant %d: ReadDoc accepted it", i)
				}
			}
		})
	}
	if len(seen) != 4 {
		t.Errorf("codec table covers %d schemas, want 4", len(seen))
	}
}
