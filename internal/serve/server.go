package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Handler returns the rsnserved HTTP API:
//
//	POST   /v1/analyses             submit (200 cached, 202 accepted, 429 full)
//	                                ?profile=cpu|heap forces a real run and
//	                                captures a pprof profile around it
//	POST   /v1/analyses/{id}/delta  submit an edit script against a finished
//	                                analysis's session; {id} is a job ID or a
//	                                raw content key (restart resume)
//	GET    /v1/analyses/{id}        job status
//	GET    /v1/analyses/{id}/report finished job's rsnsec.run-report/v1
//	GET    /v1/analyses/{id}/profile captured pprof blob (octet-stream)
//	DELETE /v1/analyses/{id}        cancel a queued or running job
//	POST   /v1/attacks              submit an obfuscated network for the
//	                                attack analysis (200 cached, 202
//	                                accepted; see attack.go)
//	GET    /v1/attacks/{id}         job status (alias of the analyses
//	                                status endpoint — attacks share the
//	                                job namespace)
//	GET    /v1/attacks/{id}/report  finished rsnsec.attack-report/v1
//	GET    /v1/load                 autoscale load signal (see load.go)
//	GET    /v1/slo                  SLO burn-rate status, rsnsec.slo-status/v1
//	                                (404 without -slo; see internal/obs/slo)
//	GET    /debug/events            flight-recorder events (?cat=, ?job=,
//	                                ?n=, ?since=<seq> for incremental tails)
//	GET    /debug/metrics/history   windowed metrics history (?name=, ?window=,
//	                                ?step=, ?fn=), rsnsec.metrics-history/v1
//	GET    /healthz                 liveness
//	GET    /readyz                  readiness (503 while draining, saturated,
//	                                or a gate_ready SLO is breaching)
//	GET    /metrics                 Prometheus text metrics
//
// Every endpoint is instrumented with per-endpoint latency histograms
// and status-code counters on the server registry, and wrapped in the
// request-identity middleware: an X-Request-ID is accepted (or minted)
// and a W3C traceparent continued (or started), both echoed on the
// response and threaded through the request context into logs, spans,
// job records and flight events. One structured access-log line is
// emitted per request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/analyses", s.instrument("submit", s.handleSubmit))
	mux.Handle("POST /v1/analyses/{id}/delta", s.instrument("delta", s.handleDelta))
	mux.Handle("GET /v1/analyses/{id}", s.instrument("status", s.handleStatus))
	mux.Handle("GET /v1/analyses/{id}/report", s.instrument("report", s.handleReport))
	mux.Handle("GET /v1/analyses/{id}/profile", s.instrument("profile", s.handleProfile))
	mux.Handle("DELETE /v1/analyses/{id}", s.instrument("cancel", s.handleCancel))
	mux.Handle("POST /v1/attacks", s.instrument("attack", s.handleAttack))
	mux.Handle("GET /v1/attacks/{id}", s.instrument("status", s.handleStatus))
	mux.Handle("GET /v1/attacks/{id}/report", s.instrument("report", s.handleReport))
	mux.Handle("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	mux.Handle("GET /v1/load", s.instrument("load", s.handleLoad))
	mux.Handle("GET /v1/slo", s.instrument("slo", s.handleSLO))
	mux.Handle("GET /debug/events", s.instrument("events", s.handleEvents))
	mux.Handle("GET /debug/metrics/history", s.instrument("history", s.handleHistory))
	mux.Handle("GET /readyz", s.instrument("readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.sched.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		// A saturated server is alive but should not receive new
		// traffic: the predicted backlog says a submission now would
		// wait longer than the operator's bound.
		if s.cfg.SaturationThreshold > 0 {
			if ls := s.loadStatus(); ls.Saturated {
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"status":                    "saturated",
					"predicted_backlog_seconds": ls.PredictedBacklogSeconds,
				})
				return
			}
		}
		// An objective marked gate_ready couples its burn-rate alert to
		// readiness: while both windows burn over threshold, drain this
		// instance rather than keep failing its SLO on live traffic.
		if s.sloEng != nil && s.sloEng.Breaching(time.Now()) {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "slo-breaching"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}))
	mux.Handle("GET /metrics", s.instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	}))
	return mux
}

// statusRecorder captures the response code and body size for the
// request counters and the access log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// handleEvents serves the flight recorder (404 when disabled via
// Config.FlightEvents < 0).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	s.flight.Handler().ServeHTTP(w, r)
}

// instrument wraps a handler with the request-identity middleware, the
// per-endpoint latency histogram (serve_request_seconds{endpoint=...}),
// status-code counters (serve_requests_total{endpoint=...,code=...})
// and the structured access log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := s.reg.Histogram(fmt.Sprintf("serve_request_seconds{endpoint=%q}", endpoint),
		0.001, 0.01, 0.1, 1, 10, 60)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := requestIdentity(r)
		r = r.WithContext(obs.WithReqInfo(r.Context(), ri))
		// Echo the identity so callers (and retries, and support
		// tickets) can quote the exact IDs this request ran under.
		w.Header().Set("X-Request-ID", ri.RequestID)
		w.Header().Set("Traceparent", ri.Trace.Traceparent())
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		dur := time.Since(start)
		hist.Observe(dur.Seconds())
		s.reg.Counter(fmt.Sprintf("serve_requests_total{endpoint=%q,code=\"%d\"}",
			endpoint, rec.code)).Inc()
		s.httpLog.LogAttrs(r.Context(), slog.LevelInfo, "access",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint),
			slog.Int("status", rec.code),
			slog.Int64("bytes", rec.bytes),
			slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
			slog.String("remote", r.RemoteAddr))
	})
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit resolves, caches or schedules one analysis:
//
//	store hit             → 200, finished record, cache "hit"
//	identical in flight   → 202, the existing job, cache "coalesced"
//	fresh                 → 202, new queued job, cache "miss"
//	queue full            → 429 + Retry-After
//	draining              → 503
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req AnalysisRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	a, err := s.resolve(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch prof := r.URL.Query().Get("profile"); prof {
	case "", "cpu", "heap":
		a.profile = prof
	default:
		writeError(w, http.StatusBadRequest, "unknown profile %q (want cpu or heap)", prof)
		return
	}
	s.serveOrSchedule(w, r, a, req.Priority, req.TimeoutMS)
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// status snapshots a job via the scheduler (taking its lock).
func (s *Server) status(j *Job) JobStatus {
	st, err := s.sched.Status(j.ID)
	if err != nil {
		// The record was evicted between creation and snapshot — only
		// possible under absurdly small retention; synthesize minimally.
		return JobStatus{ID: j.ID, Key: j.Key, State: StateDone}
	}
	return st
}

// statusAs snapshots a job but reports a submission-specific cache
// disposition: a coalesced caller joined an existing "miss" job, and
// the record's own field must not be rewritten under it.
func (s *Server) statusAs(j *Job, cache string) JobStatus {
	st := s.status(j)
	st.Cache = cache
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Status(r.PathValue("id"))
	if errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusNotFound, "unknown analysis %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReport streams the finished job's run-report document. For
// unfinished jobs it answers 409 with the job status, so pollers can
// use one URL.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	data, st, err := s.sched.Result(r.PathValue("id"))
	if errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusNotFound, "unknown analysis %q", r.PathValue("id"))
		return
	}
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", st.Cache)
		w.Header().Set("X-Content-Key", contentKey(st.Key))
		_, _ = w.Write(data)
	case StateFailed, StateCanceled:
		writeError(w, http.StatusGone, "analysis %s: %s", st.ID, st.Error)
	default:
		writeJSON(w, http.StatusConflict, st)
	}
}

// handleProfile streams the pprof blob captured around a
// ?profile=cpu|heap job: 409 with the status while the job is still
// running (poll and retry), 404 when the job never requested
// profiling (or capture failed), 200 with the raw protobuf otherwise.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	kind, data, st, err := s.sched.Profile(r.PathValue("id"))
	if errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusNotFound, "unknown analysis %q", r.PathValue("id"))
		return
	}
	if !st.State.Finished() {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	if len(data) == 0 {
		writeError(w, http.StatusNotFound, "analysis %s has no captured profile (submit with ?profile=cpu or ?profile=heap)", st.ID)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Profile-Kind", kind)
	w.Header().Set("X-Content-Key", contentKey(st.Key))
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Cancel(r.Context(), r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown analysis %q", r.PathValue("id"))
	case errors.Is(err, ErrJobFinished):
		writeJSON(w, http.StatusConflict, st)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// Tracer returns the server's tracer (nil when tracing is off); the
// CLI uses it to flush spans at exit.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }
