// Package serve is the rsnserved analysis service: a daemon that runs
// the secure-data-flow method (and the Table I experimental protocol)
// behind an HTTP+JSON API, backed by a content-addressed result store
// and a bounded job scheduler.
//
// The pieces compose as
//
//	HTTP API  ──►  content address (canonical SHA-256 of the inputs)
//	   │                 │
//	   │           store hit? ── yes ──► finished record, cached report
//	   │                 │ no
//	   └──────►  scheduler (coalesce identical in-flight jobs,
//	             bounded queue with priority, 429 backpressure)
//	                     │
//	              worker pool ──► internal/exp / internal/core
//	                     │
//	              store.Put(key, report) — rsnsec.run-report/v1
//
// Analysis results (counts, changes, violations) are deterministic by
// construction, which is what makes content addressing sound; the
// byte-identical responses for repeated submissions come from serving
// the stored document instead of re-running.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/olog"
	"repro/internal/obs/series"
	"repro/internal/obs/slo"
)

// Limits bounds and defaults the per-request protocol parameters.
type Limits struct {
	// DefaultCircuits/DefaultSpecs/DefaultScanFFs fill zero-valued
	// submissions; defaults are deliberately small — a service answers
	// many users, so the heavyweight full protocol must be asked for
	// explicitly.
	DefaultCircuits int
	DefaultSpecs    int
	DefaultScanFFs  int
	// MaxCircuits/MaxSpecs/MaxScanFFs reject submissions that would
	// monopolize the workers.
	MaxCircuits int
	MaxSpecs    int
	MaxScanFFs  int
}

// Config parameterizes a Server. The zero value is usable: ephemeral
// port, memory-only store, one worker.
type Config struct {
	// Addr is the listen address; "" means "localhost:0" (ephemeral).
	Addr string
	// Workers is the number of concurrent analysis jobs; <= 0 uses 1.
	Workers int
	// EngineWorkers bounds each job's inner SAT worker pool; <= 0 lets
	// the engine size itself.
	EngineWorkers int
	// QueueDepth bounds the pending-job queue; <= 0 uses 64.
	QueueDepth int
	// JobTimeout caps each job's run time; 0 means no cap.
	JobTimeout time.Duration
	// FinishedJobs bounds the retained finished-job records; <= 0 uses
	// 1024.
	FinishedJobs int
	// MaxSessions bounds the live (in-memory) analysis sessions kept
	// for delta submissions; <= 0 uses 16. Evicted sessions re-hydrate
	// from their persisted records on the next delta.
	MaxSessions int
	// Store sizes the content-addressed result store.
	Store StoreConfig
	// Limits bounds request parameters; zero fields use the package
	// defaults (see limits).
	Limits Limits
	// Registry receives the server's metrics (request latencies, queue
	// depth, store hit/miss counters, engine stage counters); nil
	// creates a private registry.
	Registry *obs.Registry
	// Tracer, when non-nil, receives hierarchical spans:
	// server > job > (engine stages).
	Tracer *obs.Tracer
	// SlowJobThreshold enables slow-job records: a job whose run time
	// reaches it logs one warn-level "slow" event on the ringed job
	// logger and counts in serve_slow_jobs_total; 0 disables.
	SlowJobThreshold time.Duration
	// Logger receives the server's structured records (lifecycle
	// events, one access-log line per request, scheduler, job, store
	// and attack events). Build it with olog.New so records pick up the
	// request identity from their context. Nil keeps the server silent;
	// the flight recorder still rings its events.
	Logger *slog.Logger
	// FlightEvents sizes the flight recorder's per-category rings
	// (served at /debug/events): 0 uses 256, < 0 disables the recorder
	// entirely. The recorder rings every record of the serve, sched,
	// job, store and attack components at every level, whatever
	// Logger's level.
	FlightEvents int
	// SaturationThreshold flips /readyz to 503 "saturated" while the
	// predicted backlog meets or exceeds it; 0 disables the gate.
	SaturationThreshold time.Duration
	// History, when non-nil, enables the in-process metrics history: a
	// bounded series store sampling the registry on History.Interval
	// (served at /debug/metrics/history, feeding the SLO engine). Nil
	// disables it — unless SLO is set, which enables history with
	// defaults sized to the objectives.
	History *series.Config
	// SLO, when non-nil, evaluates the objectives against the metrics
	// history: /v1/slo serves the status document, slo_* gauges appear
	// in /metrics, and gate_ready objectives couple to /readyz.
	SLO *slo.Config
}

// limits resolves the configured bounds against the defaults.
func (c *Config) limits() Limits {
	l := c.Limits
	if l.DefaultCircuits <= 0 {
		l.DefaultCircuits = 2
	}
	if l.DefaultSpecs <= 0 {
		l.DefaultSpecs = 4
	}
	if l.DefaultScanFFs <= 0 {
		l.DefaultScanFFs = 120
	}
	if l.MaxCircuits <= 0 {
		l.MaxCircuits = 16
	}
	if l.MaxSpecs <= 0 {
		l.MaxSpecs = 64
	}
	if l.MaxScanFFs <= 0 {
		l.MaxScanFFs = 1500
	}
	return l
}

// Server is the rsnserved daemon: HTTP API + scheduler + store.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	store  *Store
	sched  *Scheduler
	stats  *engine.Stats
	tracer *obs.Tracer
	root   *obs.Span

	// log carries lifecycle, session and profile records ("serve"
	// component) and atkLog the attack events ("attack"); both are
	// ringed by the flight recorder. httpLog carries the per-request
	// access log ("http") and engLog per-job engine progress
	// ("engine"); both bypass the ring.
	log     *slog.Logger
	atkLog  *slog.Logger
	httpLog *slog.Logger
	engLog  *slog.Logger
	flight  *flight.Recorder
	cost    *costModel
	history *series.Store
	sloEng  *slo.Engine

	slowJobs *obs.Counter
	profMu   sync.Mutex // the CPU profiler is process-global

	// atkMetrics aggregates attack-job solver statistics across jobs
	// (see attack.go).
	atkMetrics attackMetrics

	// sessions holds the live analysis sessions deltas build on,
	// keyed by content address (see session.go).
	sessMu   sync.Mutex
	sessions map[string]*session

	httpSrv *http.Server
	ln      net.Listener

	// runJob executes one resolved analysis; a field so tests can
	// substitute controllable workloads for the real engine.
	runJob runFunc
}

// New builds a Server (scheduler workers start immediately; the HTTP
// listener starts in Start).
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	base := cfg.Logger
	if base == nil {
		base = olog.Discard()
	}
	var rec *flight.Recorder
	if cfg.FlightEvents >= 0 {
		rec = flight.New(cfg.FlightEvents)
	}
	// Each daemon event is one record: the ringed logger stores it in
	// the flight recorder and journals it when the level admits. The
	// access log and engine progress stay on base — one record per
	// request or per stage would cost every poll and evict the
	// decisions from the rings.
	ringed := slog.New(rec.Wrap(base.Handler()))
	storeCfg := cfg.Store
	storeCfg.Logger = ringed
	store, err := NewStore(storeCfg, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		store:    store,
		tracer:   cfg.Tracer,
		log:      olog.Component(ringed, "serve"),
		atkLog:   olog.Component(ringed, "attack"),
		httpLog:  olog.Component(base, "http"),
		engLog:   olog.Component(base, "engine"),
		flight:   rec,
		cost:     newCostModel(cfg.Registry),
		sessions: make(map[string]*session),
		// Engine stage counters aggregate across jobs on the server
		// registry (engine_stage_*_total{stage=...}): per-job numbers
		// stay out of the report documents (they would break
		// byte-identical caching) but remain observable live.
		stats: engine.NewStatsOn(cfg.Registry),
	}
	s.atkMetrics = newAttackMetrics(cfg.Registry)
	s.runJob = s.execute
	if cfg.SlowJobThreshold > 0 {
		cfg.Registry.SetHelp("serve_slow_jobs_total", "Jobs whose run time reached the slow-job threshold.")
		s.slowJobs = cfg.Registry.Counter("serve_slow_jobs_total")
	}
	// dispatch wraps the substitutable runJob seam with the job span,
	// the slow-job record and profile capture.
	s.sched = NewScheduler(SchedulerConfig{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		JobTimeout:   cfg.JobTimeout,
		FinishedJobs: cfg.FinishedJobs,
		Logger:       ringed,
	}, cfg.Registry, s.dispatch)
	s.registerLoadGauges()
	// SLO evaluation needs history; an SLO config without one enables
	// the series store with defaults stretched to cover the slowest
	// objective window.
	histCfg := cfg.History
	if histCfg == nil && cfg.SLO != nil {
		histCfg = &series.Config{}
		if w := cfg.SLO.MaxWindow(); w > histCfg.Retention {
			histCfg.Retention = w
		}
	}
	if histCfg != nil {
		s.history = series.NewStore(cfg.Registry, *histCfg)
	}
	if cfg.SLO != nil {
		eng, err := slo.NewEngine(cfg.SLO, s.history, cfg.Registry)
		if err != nil {
			return nil, err
		}
		s.sloEng = eng
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Start binds the listen address and serves in a background goroutine.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "localhost:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	if s.history != nil {
		s.history.Start()
	}
	if s.tracer != nil {
		s.root = s.tracer.Start(nil, "server", obs.Str("addr", ln.Addr().String()))
	}
	s.log.Info("rsnserved listening", "addr", "http://"+ln.Addr().String())
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("http server failed", "err", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (host:port); "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// History returns the in-process series store (nil when disabled).
// Tests tick it manually via Sample; the daemon samples in background.
func (s *Server) History() *series.Store { return s.history }

// SLOEngine returns the objectives engine (nil when no SLO config).
func (s *Server) SLOEngine() *slo.Engine { return s.sloEng }

// Shutdown drains gracefully: new submissions are refused immediately
// (503), queued and running jobs are given until ctx's deadline to
// finish, then any stragglers are canceled, and finally the HTTP
// listener closes. An accepted job is never silently dropped: it ends
// done, failed or canceled, and its record stays queryable until the
// process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.log.Info("rsnserved draining", "queued", s.sched.Queued(), "running", s.sched.Running())
	if s.history != nil {
		s.history.Stop()
	}
	s.sched.Drain(ctx)
	err := s.httpSrv.Shutdown(ctx)
	if s.root != nil {
		s.root.End()
	}
	s.log.Info("rsnserved stopped")
	return err
}

// execute runs one resolved analysis to a serialized
// rsnsec.run-report/v1 document and stores it under the job's content
// address. Job-level engine instrumentation feeds the server-wide
// stats (live /metrics) but NOT the report document: a report is a
// function of the analysis inputs, not of this process's cumulative
// counters, so its Stages section is left empty and StartedAt unset.
func (s *Server) execute(ctx context.Context, j *Job) ([]byte, error) {
	a := j.Payload.(*analysis)
	if a.script != nil {
		return s.executeDelta(ctx, j, a)
	}
	if a.atk != nil {
		return s.executeAttack(ctx, j, a)
	}
	var rep *obs.RunReport
	if a.benchmark != nil {
		cfg := a.cfg
		cfg.Workers = s.cfg.EngineWorkers
		cfg.Parallel = 1 // job concurrency comes from the scheduler pool
		cfg.Stats = s.stats
		cfg.Tracer = s.tracer
		cfg.TraceParent = j.span
		results, err := exp.RunProtocol(ctx, []bench.Benchmark{*a.benchmark}, cfg, nil)
		if err != nil {
			return nil, err
		}
		rep = exp.BuildReport("rsnserved", "main", cfg, results, nil)
	} else {
		// The run's dependency analysis outlives it as an incremental
		// session: deltas against it skip the dependency calculation
		// and re-propagate only their dirty cone.
		d := a.design
		crep, err := core.Secure(d.Network.Clone(), d.Circuit, d.Internal, d.Spec, core.Options{
			Mode:        a.mode,
			Workers:     s.cfg.EngineWorkers,
			Context:     ctx,
			Logger:      s.engLog.With("job", j.ID),
			Stats:       s.stats,
			Tracer:      s.tracer,
			TraceParent: j.span,
		})
		if err != nil {
			return nil, err
		}
		rep = exp.SecureReport("rsnserved", a.label, a.mode, d.Network.Stats(), crep, nil)
		s.saveSession(&session{
			hydrated: true, key: a.key, label: a.label, mode: a.mode,
			iclText: a.iclText, benchText: a.benchText,
			an: crep.Analysis.WithEngine(engine.Options{Workers: s.cfg.EngineWorkers, Stats: s.stats}),
			nw: d.Network, circuit: d.Circuit, internal: d.Internal, spec: d.Spec,
		})
	}
	var buf bytes.Buffer
	if err := obs.WriteReport(&buf, rep); err != nil {
		return nil, fmt.Errorf("serve: encode report: %w", err)
	}
	// The store key is the undecorated content address (a.key): a
	// profiled job's scheduler key carries a "#profile-..." suffix so
	// it never coalesces with (or short-circuits as) an unprofiled
	// submission, but its result still warms the cache for plain ones.
	if err := s.store.Put(a.key, buf.Bytes()); err != nil {
		// The result is still served from the job record; only future
		// identical submissions lose the cache hit.
		s.log.LogAttrs(ctx, slog.LevelWarn, "store put failed",
			slog.String("key", shortKey(a.key)), slog.String("err", err.Error()))
	}
	return buf.Bytes(), nil
}
