package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// LoadStatus is the autoscale load signal served by GET /v1/load and
// mirrored as gauges on /metrics: how busy the worker pool is, how
// deep the queue is, how long the oldest queued submission has waited,
// and how many seconds of work the cost model predicts are ahead of a
// submission arriving now. An autoscaler (or a load balancer deciding
// where to route) needs exactly this — queue depth alone says nothing
// when jobs differ by three orders of magnitude in size.
type LoadStatus struct {
	Workers    int `json:"workers"`
	Running    int `json:"running"`
	QueueDepth int `json:"queue_depth"`
	// WorkerBusy is Running/Workers in 0..1.
	WorkerBusy        float64 `json:"worker_busy"`
	OldestWaitSeconds float64 `json:"oldest_wait_seconds"`
	// PredictedBacklogSeconds estimates how long a job submitted now
	// would wait for a worker: the cost-model sum of queued work and
	// running remainders per worker, floored by the oldest observed
	// wait (the queue never predicts better than it is measuring).
	PredictedBacklogSeconds float64 `json:"predicted_backlog_seconds"`
	// SaturationThresholdSeconds echoes the -readyz-saturation
	// configuration (absent when the gate is off); Saturated reports
	// whether the backlog breaches it — the same signal that flips
	// /readyz to 503.
	SaturationThresholdSeconds float64 `json:"saturation_threshold_seconds,omitempty"`
	Saturated                  bool    `json:"saturated"`
	// CostP50NSPerFF / CostP90NSPerFF expose the ns-per-scan-FF
	// percentiles of the cost model's histogram; the p90 is the
	// predictor's rate (both absent until a sized job has finished).
	CostP50NSPerFF float64 `json:"cost_p50_ns_per_ff,omitempty"`
	CostP90NSPerFF float64 `json:"cost_p90_ns_per_ff,omitempty"`
}

// costModel predicts one job's run time from its scan flip-flop count
// (see DESIGN.md §5j). Every finished sized job records its
// ns-per-scan-FF rate into the serve_job_cost_ns_per_ff histogram, and
// a job is predicted to take the histogram's p90 rate times its size:
// a queue-wait promise should reflect the observed spread, not the last
// sample, and under a bimodal job mix (cheap pure-mode jobs interleaved
// with SAT-heavy hybrid or attack ones) only an upper percentile
// follows the slow mode. The backlog signal gates /readyz, so
// under-promising wait time is the harmful direction.
type costModel struct {
	rate *obs.Histogram // serve_job_cost_ns_per_ff
}

// costBounds are the serve_job_cost_ns_per_ff histogram's bucket upper
// bounds — log-spaced over the plausible ns-per-scan-FF range (sub-µs
// pure-mode propagation up to ~10ms/FF SAT-heavy attacks). Percentiles
// resolve to these bounds, so they are also the granularity of the
// backlog prediction.
var costBounds = []float64{1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7}

// newCostModel registers the cost-rate histogram on reg.
func newCostModel(reg *obs.Registry) *costModel {
	reg.SetHelp("serve_job_cost_ns_per_ff",
		"Per-job analysis cost rate in nanoseconds per scan flip-flop; "+
			"its p90 drives the /v1/load backlog prediction.")
	return &costModel{rate: reg.Histogram("serve_job_cost_ns_per_ff", costBounds...)}
}

// observe folds one finished job into the model. Jobs of unknown size
// (deltas) carry no rate.
func (m *costModel) observe(scanFFs int, d time.Duration) {
	if scanFFs > 0 && d > 0 {
		m.rate.Observe(float64(d) / float64(scanFFs))
	}
}

// quantile returns the q-quantile ns-per-FF rate; 0 before the first
// sized job finishes. A quantile in the overflow bucket (a 60-FF job
// slower than 0.6 s lands there) clamps to the last bound: +Inf is
// neither a duration nor encodable in the /v1/load JSON.
func (m *costModel) quantile(q float64) float64 {
	return min(m.rate.Quantile(q), costBounds[len(costBounds)-1])
}

// estimate predicts a job's run time: the p90 rate times its scan-FF
// count, so 0 while the model is cold and for jobs of unknown size,
// whose wait the oldest queued wait still floors (see loadStatus).
func (m *costModel) estimate(scanFFs int) time.Duration {
	return time.Duration(m.quantile(0.9) * float64(scanFFs))
}

// jobCost estimates one scheduled job's total run time for the load
// snapshot (called under the scheduler lock; touches only immutable
// payload fields and the cost model's own lock).
func (s *Server) jobCost(j *Job) time.Duration {
	a, _ := j.Payload.(*analysis)
	ffs := 0
	if a != nil {
		ffs = a.scanFFs
	}
	return s.cost.estimate(ffs)
}

// loadStatus assembles the current load signal.
func (s *Server) loadStatus() LoadStatus {
	ls := s.sched.Load(time.Now(), s.jobCost)
	st := LoadStatus{
		Workers:           ls.Workers,
		Running:           ls.Running,
		QueueDepth:        ls.Queued,
		WorkerBusy:        float64(ls.Running) / float64(ls.Workers),
		OldestWaitSeconds: ls.OldestWait.Seconds(),
	}
	backlog := ls.Backlog
	if ls.OldestWait > backlog {
		backlog = ls.OldestWait
	}
	st.PredictedBacklogSeconds = backlog.Seconds()
	if t := s.cfg.SaturationThreshold; t > 0 {
		st.SaturationThresholdSeconds = t.Seconds()
		st.Saturated = backlog >= t
	}
	st.CostP50NSPerFF, st.CostP90NSPerFF = s.cost.quantile(0.5), s.cost.quantile(0.9)
	return st
}

// handleLoad serves GET /v1/load.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.loadStatus())
}

// registerLoadGauges exposes the load signal on /metrics via a
// registry pull-collector, so every scrape sees a fresh snapshot
// without a background refresher goroutine. Ratios and durations are
// encoded for int64 gauges: busy as permille, waits as milliseconds.
func (s *Server) registerLoadGauges() {
	s.reg.SetHelp("serve_worker_busy_permille", "Busy workers per 1000 (1000 = every worker running a job).")
	s.reg.SetHelp("serve_queue_oldest_wait_ms", "How long the longest-queued submission has been waiting.")
	s.reg.SetHelp("serve_predicted_backlog_ms", "Cost-model prediction of how long a new submission would wait for a worker.")
	busyG := s.reg.Gauge("serve_worker_busy_permille")
	oldestG := s.reg.Gauge("serve_queue_oldest_wait_ms")
	backlogG := s.reg.Gauge("serve_predicted_backlog_ms")
	workersG := s.reg.Gauge("serve_workers")
	s.reg.AddCollector(func() {
		st := s.loadStatus()
		busyG.Set(int64(st.WorkerBusy * 1000))
		oldestG.Set(int64(st.OldestWaitSeconds * 1000))
		backlogG.Set(int64(st.PredictedBacklogSeconds * 1000))
		workersG.Set(int64(st.Workers))
	})
}

// requestIdentity accepts or mints the request's identity: a caller's
// X-Request-ID is honored when it is short and printable (anything
// else gets a fresh one — the ID lands verbatim in logs and JSON), and
// a valid W3C traceparent is continued as a child (same trace ID, new
// span ID). Requests without either get fresh random identities, so
// every request is correlatable even when no caller cooperates.
func requestIdentity(r *http.Request) obs.ReqInfo {
	ri := obs.ReqInfo{RequestID: sanitizeRequestID(r.Header.Get("X-Request-ID"))}
	if ri.RequestID == "" {
		ri.RequestID = obs.NewRequestID()
	}
	if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		ri.Trace = tc.Child()
	} else {
		ri.Trace = obs.NewTraceContext()
	}
	return ri
}

func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}
