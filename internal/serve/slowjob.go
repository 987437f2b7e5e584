package serve

import (
	"bytes"
	"context"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// dispatch is the scheduler's run function: it wraps the job execution
// seam (s.runJob, substitutable by tests) with the job span, the
// slow-job record and on-demand profile capture, so those paths are
// exercised regardless of the workload behind them.
//
// A job that reaches the slow-job threshold logs one warn-level "slow"
// record on the ringed job logger, so /debug/events?job=ID shows it
// beside the job's enqueue/start/done events; its spans are in the
// trace journal under its job span, joined by the same id and trace_id.
func (s *Server) dispatch(ctx context.Context, j *Job) ([]byte, error) {
	attrs := []obs.Attr{obs.Str("id", j.ID), obs.Str("label", j.Label), obs.Str("key", shortKey(j.Key))}
	if j.RequestID != "" {
		attrs = append(attrs, obs.Str("request_id", j.RequestID), obs.Str("trace_id", j.TraceID))
	}
	j.span = s.tracer.Start(s.root, "job", attrs...)

	start := time.Now()
	data, err := s.runWithProfile(ctx, j)
	j.span.End()
	dur := time.Since(start)

	// Successful runs calibrate the predicted-backlog cost model.
	if err == nil {
		if a, _ := j.Payload.(*analysis); a != nil {
			s.cost.observe(a.scanFFs, dur)
		}
	}

	if t := s.cfg.SlowJobThreshold; t > 0 && dur >= t {
		s.slowJobs.Inc()
		s.sched.jobLog.LogAttrs(ctx, slog.LevelWarn, "slow", slog.String("job", j.ID),
			slog.Duration("dur", dur.Round(time.Millisecond)), slog.Duration("threshold", t))
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
