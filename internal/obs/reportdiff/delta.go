package reportdiff

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// DeltaSchema identifies the delta-report document: the result of one
// incremental (edit-script) analysis, pairing the run's own report with
// the structured diff against its parent.
const DeltaSchema = "rsnsec.delta-report/v1"

// DeltaDoc is the stored/streamed result of a delta analysis. BaseKey
// and Key content-address the parent and the derived analysis when the
// document came from rsnserved; the CLI leaves them empty.
type DeltaDoc struct {
	Schema     string `json:"schema"`
	BaseKey    string `json:"base_key,omitempty"`
	Key        string `json:"key,omitempty"`
	ScriptHash string `json:"script_hash"`
	ScriptOps  int    `json:"script_ops"`
	// Report is the delta run's own rsnsec.run-report/v1.
	Report *obs.RunReport `json:"report"`
	// Diff compares the parent report (old) against Report (new).
	Diff *Diff `json:"diff"`
}

// NewDeltaDoc assembles a delta document, computing the diff of the
// parent report against the delta run's report.
func NewDeltaDoc(baseKey, key, scriptHash string, scriptOps int, parent, report *obs.RunReport) *DeltaDoc {
	return &DeltaDoc{
		Schema:     DeltaSchema,
		BaseKey:    baseKey,
		Key:        key,
		ScriptHash: scriptHash,
		ScriptOps:  scriptOps,
		Report:     report,
		Diff:       Compare(parent, report),
	}
}

// Validate checks the document's schema and the embedded run report.
func (d *DeltaDoc) Validate() error {
	if d.Schema != DeltaSchema {
		return fmt.Errorf("reportdiff: delta doc schema %q, want %q", d.Schema, DeltaSchema)
	}
	if d.ScriptHash == "" {
		return fmt.Errorf("reportdiff: delta doc missing script hash")
	}
	if d.Report == nil {
		return fmt.Errorf("reportdiff: delta doc missing report")
	}
	if err := d.Report.Validate(); err != nil {
		return fmt.Errorf("reportdiff: delta doc report: %w", err)
	}
	if d.Diff == nil {
		return fmt.Errorf("reportdiff: delta doc missing diff")
	}
	return nil
}

// ReadDeltaDoc is obs.ReadDoc for a delta document; the perfbench
// module calls it.
func ReadDeltaDoc(r io.Reader) (*DeltaDoc, error) { return obs.ReadDoc[DeltaDoc](r) }
