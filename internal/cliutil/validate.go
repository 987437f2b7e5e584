package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/obs/perfrec"
	"repro/internal/obs/reportdiff"
)

// check pairs a validating reader with the one-line summary of what it
// read.
func check[T any](read func(io.Reader) (*T, error), summary func(*T) string) func(io.Reader) (string, error) {
	return func(r io.Reader) (string, error) {
		d, err := read(r)
		if err != nil {
			return "", err
		}
		return summary(d), nil
	}
}

// validators maps every stored document schema to its reader.
var validators = map[string]func(io.Reader) (string, error){
	obs.ReportSchema: check(obs.ReadDoc[obs.RunReport], func(rep *obs.RunReport) string {
		return fmt.Sprintf("%d benchmarks, %d stages, %d runs", len(rep.Benchmarks), len(rep.Stages), rep.Totals.Runs)
	}),
	perfrec.BenchSchema: check(obs.ReadDoc[perfrec.Record], func(rec *perfrec.Record) string {
		return fmt.Sprintf("%d benchmarks, %d reps, %s/%s %s",
			len(rec.Benchmarks), rec.Reps, rec.Env.GOOS, rec.Env.GOARCH, rec.Env.GoVersion)
	}),
	obfus.ReportSchema: check(obs.ReadDoc[obfus.Report], func(rep *obfus.Report) string {
		return fmt.Sprintf("network %s, %d key bits", rep.Network.Name, rep.Overlay.KeyBits)
	}),
	reportdiff.DeltaSchema: check(obs.ReadDoc[reportdiff.DeltaDoc], func(d *reportdiff.DeltaDoc) string {
		return fmt.Sprintf("%d script ops, %d benchmarks, %d changed fields",
			d.ScriptOps, len(d.Report.Benchmarks), len(d.Diff.Deltas))
	}),
}

// Validate is the -validate mode of rsnsec and rsnbench: it reads the
// document's schema field, runs the document through that schema's
// validating reader, and returns the one line the command prints.
func Validate(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("%s: parse: %w", path, err)
	}
	v, ok := validators[head.Schema]
	if !ok {
		known := make([]string, 0, len(validators))
		for schema := range validators {
			known = append(known, schema)
		}
		sort.Strings(known)
		return "", fmt.Errorf("%s: unknown schema %q (want one of %s)", path, head.Schema, strings.Join(known, ", "))
	}
	detail, err := v(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return fmt.Sprintf("%s: valid %s (%s)", path, head.Schema, detail), nil
}
