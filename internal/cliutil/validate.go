package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/obs/perfrec"
	"repro/internal/obs/series"
	"repro/internal/obs/slo"
)

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
	r := bytes.NewReader(data)
	var detail string
	switch head.Schema {
	case obs.ReportSchema:
		var rep *obs.RunReport
		if rep, err = obs.ReadReport(r); err == nil {
			detail = fmt.Sprintf("%d benchmarks, %d stages, %d runs", len(rep.Benchmarks), len(rep.Stages), rep.Totals.Runs)
		}
	case perfrec.BenchSchema:
		var rec *perfrec.Record
		if rec, err = perfrec.Read(r); err == nil {
			detail = fmt.Sprintf("%d benchmarks, %d reps, %s/%s %s",
				len(rec.Benchmarks), rec.Reps, rec.Env.GOOS, rec.Env.GOARCH, rec.Env.GoVersion)
		}
	case obfus.ReportSchema:
		var rep *obfus.Report
		if rep, err = obfus.ReadReport(r); err == nil {
			detail = fmt.Sprintf("network %s, %d key bits", rep.Network.Name, rep.Overlay.KeyBits)
		}
	case slo.ConfigSchema:
		var c *slo.Config
		if c, err = slo.ReadConfig(r); err == nil {
			detail = fmt.Sprintf("%d objectives", len(c.Objectives))
		}
	case slo.StatusSchema:
		var s *slo.Status
		if s, err = slo.ReadStatus(r); err == nil {
			detail = fmt.Sprintf("%d objectives, breaching=%v", len(s.Objectives), s.Breaching)
		}
	case series.HistorySchema:
		var h *series.History
		if h, err = series.ReadHistory(r); err == nil {
			detail = fmt.Sprintf("%s %s/%s, %d points", h.Kind, h.Name, h.Fn, len(h.Points))
		}
	default:
		return "", fmt.Errorf("%s: unknown schema %q (want %s, %s, %s, %s, %s or %s)", path, head.Schema,
			obs.ReportSchema, perfrec.BenchSchema, obfus.ReportSchema, slo.ConfigSchema, slo.StatusSchema, series.HistorySchema)
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return fmt.Sprintf("%s: valid %s (%s)", path, head.Schema, detail), nil
}
