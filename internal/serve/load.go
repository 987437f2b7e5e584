package serve

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/perfrec"
	"repro/internal/obs/series"
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
	// CostP50NSPerFF / CostP90NSPerFF expose the windowed ns-per-scan-FF
	// percentiles the predictor runs on (0 while the history window is
	// still empty and the EWMA fallback is in charge).
	CostP50NSPerFF float64 `json:"cost_p50_ns_per_ff,omitempty"`
	CostP90NSPerFF float64 `json:"cost_p90_ns_per_ff,omitempty"`
}

// costModel predicts one job's run time from its scan flip-flop count.
// Prediction sources, in order (see DESIGN.md §5j for the full story):
//
//  1. Windowed percentiles. When the metrics history is enabled, every
//     finished sized job records its ns-per-scan-FF rate into the
//     serve_job_cost_ns_per_ff histogram, and the predictor uses the
//     p90 of that distribution over the history window — a queue-wait
//     promise should reflect the observed spread, not the last sample,
//     and under a bimodal job mix (cheap pure-mode jobs interleaved
//     with SAT-heavy hybrid ones) an EWMA converges to a value that
//     describes neither mode.
//  2. EWMA ns-per-FF as cold-start fallback: seeded from a bench
//     record (rsnsec.bench-record/v1 — the sum of per-stage median wall
//     times over the benchmark's scan-FF count, median across
//     benchmarks), then updated by every finished job.
//  3. EWMA of whole-job durations, for jobs with unknown size (deltas).
type costModel struct {
	mu      sync.Mutex
	nsPerFF float64 // EWMA ns per scan FF; 0 = unknown
	jobNS   float64 // EWMA whole-job ns; 0 = unknown

	costHist *obs.Histogram // serve_job_cost_ns_per_ff (nil until bindMetrics)
	history  *series.Store  // windowed percentile source (nil = EWMA only)

	// Windowed percentiles are memoized for one sampling interval: a
	// load snapshot calls estimate once per queued job, and the window
	// only changes when a sample lands.
	q50, q90 float64
	qAt      time.Time
}

// ewmaAlpha is the EWMA weight: high enough to adapt within a
// few jobs, low enough that one outlier does not whipsaw the signal.
const ewmaAlpha = 0.3

// costBounds are the serve_job_cost_ns_per_ff histogram's bucket upper
// bounds — log-spaced over the plausible ns-per-scan-FF range (sub-µs
// pure-mode propagation up to ~10ms/FF SAT-heavy attacks). Windowed
// percentiles resolve to these bounds, so they are also the
// granularity of the backlog prediction.
var costBounds = []float64{1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7}

func newCostModel(rec *perfrec.Record) *costModel {
	m := &costModel{}
	if rec == nil {
		return m
	}
	var rates []float64
	for i := range rec.Benchmarks {
		b := &rec.Benchmarks[i]
		if b.ScanFFs <= 0 {
			continue
		}
		var total int64
		for j := range b.Stages {
			total += b.Stages[j].MedianNS
		}
		if total > 0 {
			rates = append(rates, float64(total)/float64(b.ScanFFs))
		}
	}
	if len(rates) > 0 {
		sort.Float64s(rates)
		m.nsPerFF = rates[len(rates)/2]
	}
	return m
}

// bindMetrics registers the per-job cost-rate histogram the windowed
// percentiles are computed from.
func (m *costModel) bindMetrics(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.SetHelp("serve_job_cost_ns_per_ff",
		"Per-job analysis cost rate in nanoseconds per scan flip-flop; "+
			"the windowed p90 drives the /v1/load backlog prediction.")
	m.costHist = reg.Histogram("serve_job_cost_ns_per_ff", costBounds...)
}

// bindHistory attaches the series store the windowed percentiles read
// from; without it the model is EWMA-only.
func (m *costModel) bindHistory(st *series.Store) {
	if m != nil {
		m.history = st
	}
}

// observe folds one finished job into the model.
func (m *costModel) observe(scanFFs int, d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	blend := func(cur, sample float64) float64 {
		if cur == 0 {
			return sample
		}
		return cur + ewmaAlpha*(sample-cur)
	}
	if scanFFs > 0 {
		rate := float64(d) / float64(scanFFs)
		m.nsPerFF = blend(m.nsPerFF, rate)
		if m.costHist != nil {
			m.costHist.Observe(rate)
		}
	}
	m.jobNS = blend(m.jobNS, float64(d))
}

// quantiles returns the windowed (p50, p90) ns-per-FF rates, memoized
// for one sampling interval; ok is false while the window is empty
// (history disabled, or no sized job finished inside the retention).
func (m *costModel) quantiles() (p50, p90 float64, ok bool) {
	if m == nil || m.history == nil {
		return 0, 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quantilesLocked(time.Now())
}

func (m *costModel) quantilesLocked(now time.Time) (p50, p90 float64, ok bool) {
	if m.history == nil {
		return 0, 0, false
	}
	if !m.qAt.IsZero() && now.Sub(m.qAt) >= 0 && now.Sub(m.qAt) < m.history.Interval() {
		return m.q50, m.q90, m.q90 > 0
	}
	m.qAt = now
	m.q50, m.q90 = 0, 0
	d, found := m.history.FamilyHistogramWindow("serve_job_cost_ns_per_ff", m.history.Retention(), now)
	if !found {
		return 0, 0, false
	}
	p50, p90 = d.Quantile(0.5), d.Quantile(0.9)
	if math.IsNaN(p50) || math.IsNaN(p90) || math.IsInf(p90, 0) {
		return 0, 0, false
	}
	m.q50, m.q90 = p50, p90
	return p50, p90, true
}

// estimate predicts a job's run time; 0 when the model knows nothing
// yet. Sized jobs prefer the windowed p90 rate (conservative: the
// backlog signal gates /readyz, and under-promising wait time is the
// harmful direction), then the EWMA rate; sizeless jobs use the
// whole-job EWMA.
func (m *costModel) estimate(scanFFs int) time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if scanFFs > 0 {
		if _, p90, ok := m.quantilesLocked(time.Now()); ok {
			return time.Duration(p90 * float64(scanFFs))
		}
		if m.nsPerFF > 0 {
			return time.Duration(m.nsPerFF * float64(scanFFs))
		}
	}
	return time.Duration(m.jobNS)
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
	if p50, p90, ok := s.cost.quantiles(); ok {
		st.CostP50NSPerFF, st.CostP90NSPerFF = p50, p90
	}
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
