package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// slowJobEntry is one JSONL record of the slow-job log: the job's
// identity (including the submitting request's, so the dump joins the
// access log and trace journal), its measured duration against the
// configured threshold, the full span tree of the run, and the
// flight-recorder events the job left behind.
type slowJobEntry struct {
	Time        string         `json:"time"`
	JobID       string         `json:"job_id"`
	Label       string         `json:"label,omitempty"`
	Key         string         `json:"key"`
	RequestID   string         `json:"request_id,omitempty"`
	TraceID     string         `json:"trace_id,omitempty"`
	DurMS       int64          `json:"dur_ms"`
	ThresholdMS int64          `json:"threshold_ms"`
	Spans       []obs.Event    `json:"spans,omitempty"`
	Events      []flight.Event `json:"events,omitempty"`
}

// dispatch is the scheduler's run function: it wraps the job execution
// seam (s.runJob, substitutable by tests) with per-job tracing, the
// slow-job log and on-demand profile capture, so those paths are
// exercised regardless of the workload behind them.
//
// When slow-job logging is on, the job runs under a private per-job
// tracer over a collector sink — full fidelity, no sampling — and the
// complete span tree is journaled only if the job breaches the
// threshold; the server-wide tracer keeps the lifecycle spans. With
// logging off, the job traces into the server tracer as before.
func (s *Server) dispatch(ctx context.Context, j *Job) ([]byte, error) {
	tracer := s.tracer
	var collector *obs.CollectorSink
	var parent *obs.Span
	if s.slowLog != nil {
		collector = &obs.CollectorSink{}
		tracer = obs.NewTracer(collector)
	} else {
		parent = s.root
	}
	label, key := j.Label, j.Key
	attrs := []obs.Attr{obs.Str("id", j.ID), obs.Str("label", label), obs.Str("key", shortKey(key))}
	if j.RequestID != "" {
		attrs = append(attrs, obs.Str("request_id", j.RequestID), obs.Str("trace_id", j.TraceID))
	}
	span := tracer.Start(parent, "job", attrs...)
	j.tracer, j.span = tracer, span

	start := time.Now()
	data, err := s.runWithProfile(ctx, j)
	span.End()
	dur := time.Since(start)

	// Successful runs calibrate the predicted-backlog cost model.
	if err == nil {
		if a, _ := j.Payload.(*analysis); a != nil {
			s.cost.observe(a.scanFFs, dur)
		}
	}

	if s.slowLog != nil && dur >= s.cfg.SlowJobThreshold {
		s.slowJobs.Inc()
		entry := slowJobEntry{
			Time:        time.Now().UTC().Format(time.RFC3339Nano),
			JobID:       j.ID,
			Label:       label,
			Key:         key,
			RequestID:   j.RequestID,
			TraceID:     j.TraceID,
			DurMS:       dur.Milliseconds(),
			ThresholdMS: s.cfg.SlowJobThreshold.Milliseconds(),
			Spans:       collector.Events(),
			Events:      s.flight.ForJob(j.ID),
		}
		// One Encode is one Write, so concurrent dumps never interleave.
		if lerr := json.NewEncoder(s.slowLog).Encode(entry); lerr != nil {
			s.log.LogAttrs(ctx, slog.LevelError, "slow-job log write failed",
				slog.String("job", j.ID), slog.String("err", lerr.Error()))
		} else {
			s.log.LogAttrs(ctx, slog.LevelWarn, "slow job, span tree dumped",
				slog.String("job", j.ID),
				slog.Duration("dur", dur.Round(time.Millisecond)),
				slog.Duration("threshold", s.cfg.SlowJobThreshold),
				slog.Int("spans", len(entry.Spans)))
		}
	}
	return data, err
}

// runWithProfile runs the job, capturing a CPU or heap profile around
// it when the submission asked for one (?profile=cpu|heap). The CPU
// profiler is process-global, so concurrent CPU-profiled jobs
// serialize on profMu (the profile then covers only its own job plus
// whatever else the process does meanwhile — that is inherent to
// runtime profiling). Profile capture failures degrade to an
// unprofiled run; the analysis result always wins.
func (s *Server) runWithProfile(ctx context.Context, j *Job) ([]byte, error) {
	a, _ := j.Payload.(*analysis)
	kind := ""
	if a != nil {
		kind = a.profile
	}
	switch kind {
	case "cpu":
		var buf bytes.Buffer
		s.profMu.Lock()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			s.profMu.Unlock()
			s.log.LogAttrs(ctx, slog.LevelWarn, "cpu profile failed",
				slog.String("job", j.ID), slog.String("err", err.Error()))
			return s.runJob(ctx, j)
		}
		data, runErr := s.runJob(ctx, j)
		pprof.StopCPUProfile()
		s.profMu.Unlock()
		if runErr == nil {
			s.saveProfile(j, a, "cpu", buf.Bytes())
		}
		return data, runErr
	case "heap":
		data, runErr := s.runJob(ctx, j)
		if runErr == nil {
			runtime.GC() // fold transient garbage so the profile shows live allocations
			var buf bytes.Buffer
			if err := pprof.WriteHeapProfile(&buf); err != nil {
				s.log.LogAttrs(ctx, slog.LevelWarn, "heap profile failed",
					slog.String("job", j.ID), slog.String("err", err.Error()))
			} else {
				s.saveProfile(j, a, "heap", buf.Bytes())
			}
		}
		return data, runErr
	default:
		return s.runJob(ctx, j)
	}
}

// saveProfile attaches the pprof blob to the job record (served by
// GET /v1/analyses/{id}/profile) and persists it next to the cached
// report when the store has a disk tier.
func (s *Server) saveProfile(j *Job, a *analysis, kind string, data []byte) {
	s.sched.SetProfile(j, kind, data)
	if err := s.store.PutProfile(a.key, kind, data); err != nil {
		s.log.Warn("store profile failed", "job", j.ID, "err", err)
	}
	s.log.Info("profile captured", "job", j.ID, "kind", kind, "bytes", len(data))
}
