package reportdiff

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

func deltaDoc() *DeltaDoc {
	parent := report()
	child := report(func(r *obs.RunReport) {
		r.Benchmarks[0].AvgTotalChanges = 6
	})
	return NewDeltaDoc("basekey", "derivedkey", "scripthash", 2, parent, child)
}

func TestDeltaDocRoundTrip(t *testing.T) {
	d := deltaDoc()
	if d.Diff == nil || d.Diff.Empty() {
		t.Fatal("NewDeltaDoc did not compute the parent diff")
	}
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadDoc[DeltaDoc](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != DeltaSchema || got.BaseKey != "basekey" || got.Key != "derivedkey" ||
		got.ScriptHash != "scripthash" || got.ScriptOps != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Diff.Deltas) != len(d.Diff.Deltas) {
		t.Fatalf("round trip lost diff entries: %d vs %d", len(got.Diff.Deltas), len(d.Diff.Deltas))
	}
}

func TestDeltaDocValidate(t *testing.T) {
	cases := map[string]func(*DeltaDoc){
		"wrong schema":   func(d *DeltaDoc) { d.Schema = "other/v1" },
		"missing hash":   func(d *DeltaDoc) { d.ScriptHash = "" },
		"missing report": func(d *DeltaDoc) { d.Report = nil },
		"bad report":     func(d *DeltaDoc) { d.Report.Schema = "bogus" },
		"missing diff":   func(d *DeltaDoc) { d.Diff = nil },
	}
	for name, mutate := range cases {
		d := deltaDoc()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
		if err := obs.WriteDoc(&bytes.Buffer{}, d); err == nil {
			t.Errorf("%s: WriteDoc succeeded, want error", name)
		}
	}
}
