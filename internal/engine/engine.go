// Package engine owns run orchestration for the analysis pipeline:
// worker-pool sizing, context cancellation, progress reporting and
// race-safe per-stage instrumentation. The dependency computation
// (internal/dep), the hybrid analysis (internal/hybrid), the
// experimental protocol (internal/exp) and the command-line binaries
// all thread an engine.Options through their entry points.
//
// Every pipeline stage is measured once, by the Stage handle
// Options.Begin returns: one clock reading opens the stage's trace span
// and starts its wall time, and End feeds the same interval to the
// span and to the stage's counters. The counters are obs.Counters
// registered in the Stats' metrics registry
// (engine_stage_*_total{stage="..."}), so a long-running process can
// expose the same numbers live over expvar and the Prometheus-text
// endpoint of obs.StartDebug while Stats.String still renders the
// end-of-run table; the spans give every stage a place in the
// hierarchical run > circuit > stage > query trace journal.
//
// All types are safe to use at their zero value: a zero Options runs
// with all CPUs, a background context, no progress output, no stats
// collection and no tracing, and every method tolerates nil receivers
// where a stage, stats sink, or tracer is absent.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures one analysis run. The zero value is a valid
// default configuration.
type Options struct {
	// Workers bounds the number of concurrent workers of parallel
	// stages (the SAT worker pool of the 1-cycle dependency
	// computation); <= 0 uses runtime.NumCPU().
	Workers int
	// Context cancels the run. Parallel stages honor cancellation
	// between SAT queries; sequential stages between iterations. A nil
	// Context means context.Background().
	Context context.Context
	// Logger, when non-nil, receives coarse progress lines as
	// structured debug-level records. They are logged from the
	// goroutine driving a stage, never concurrently from pool workers.
	// Bind component and correlation attributes before passing it in
	// (e.g. olog.Component(lg, "engine").With("job", id)).
	Logger *slog.Logger
	// Stats, when non-nil, accumulates per-stage wall times and query
	// counts across the whole pipeline. All updates are race-safe, so
	// one Stats may be shared by concurrent analyses.
	Stats *Stats
	// Tracer, when non-nil, receives hierarchical spans
	// (run > circuit > stage > query) as JSONL events; high-frequency
	// query spans can be sampled (obs.Tracer.SampleEvery).
	Tracer *obs.Tracer
	// TraceParent is the enclosing span for spans this run starts; nil
	// makes them roots.
	TraceParent *obs.Span
}

// WorkerCount resolves the effective worker-pool size.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Ctx resolves the run context, never nil.
func (o Options) Ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Err reports the context's cancellation state.
func (o Options) Err() error { return o.Ctx().Err() }

// Logf emits one progress line to the structured Logger (debug level).
func (o Options) Logf(format string, args ...any) {
	if o.Logger != nil && o.Logger.Enabled(o.Ctx(), slog.LevelDebug) {
		o.Logger.LogAttrs(o.Ctx(), slog.LevelDebug, fmt.Sprintf(format, args...))
	}
}

// Registry returns the metrics registry backing the configured Stats,
// or nil when stats are not collected. A nil registry hands out nil
// metrics whose methods no-op.
func (o Options) Registry() *obs.Registry {
	return o.Stats.Registry()
}

// StartSpan opens a trace span under the run's parent span. The span
// (and a nil span, when no tracer is configured) is safe to use and
// must be closed with End.
func (o Options) StartSpan(name string, attrs ...obs.Attr) *obs.Span {
	return o.Tracer.Start(o.TraceParent, name, attrs...)
}

// WithParent returns a copy of the options whose spans nest under s.
func (o Options) WithParent(s *obs.Span) Options {
	o.TraceParent = s
	return o
}

// Stage is one running invocation of a named pipeline stage, opened by
// Options.Begin and closed by End. It is a value: with stats and
// tracing off, opening and closing a stage allocates nothing and reads
// no clock. The zero Stage counts and traces nothing.
type Stage struct {
	st   *StageStats
	span *obs.Span
	t0   time.Time // zero when nothing records the stage and it is not Timed
	opts Options
}

// Begin opens one invocation of the named stage: it looks up the
// stage's counters (without a lock), reads the clock once if stats or a
// tracer record the stage, and opens its span under the run's parent
// span. Close it with End.
func (o Options) Begin(name string, attrs ...obs.Attr) Stage {
	s := Stage{st: o.Stats.Stage(name), opts: o}
	if s.st != nil || o.Tracer != nil {
		s.t0 = time.Now()
		s.span = o.Tracer.StartAt(o.TraceParent, name, s.t0, attrs...)
	}
	return s
}

// Timed returns the stage with its clock started even when nothing
// records it, for a caller that reads End's duration itself.
func (s Stage) Timed() Stage {
	if s.t0.IsZero() {
		s.t0 = time.Now()
	}
	return s
}

// End closes the invocation: it adds the elapsed wall time and one call
// to the stage's counters, ends its span at the same instant, and
// returns the elapsed time. A stage that nothing records and that is not
// Timed reads no clock and returns 0.
func (s Stage) End() time.Duration {
	if s.t0.IsZero() {
		return 0
	}
	t1 := time.Now()
	d := t1.Sub(s.t0)
	if s.st != nil {
		s.st.wall.Add(int64(d))
		s.st.calls.Add(1)
	}
	s.span.EndAt(t1)
	return d
}

// Options returns the run's options with spans nesting under this
// stage's span.
func (s Stage) Options() Options { return s.opts.WithParent(s.span) }

// AddQueries adds n to the stage's query counter.
func (s Stage) AddQueries(n int64) { s.st.AddQueries(n) }

// AddItems adds n to the stage's work-item counter.
func (s Stage) AddItems(n int64) { s.st.AddItems(n) }

// AddSaved adds n to the stage's reuse counter.
func (s Stage) AddSaved(n int64) { s.st.AddSaved(n) }

// SetAttrs adds attributes to the stage's span.
func (s Stage) SetAttrs(attrs ...obs.Attr) { s.span.SetAttrs(attrs...) }

// Stats accumulates race-safe per-stage instrumentation of one or more
// pipeline runs on top of an obs metrics registry: each stage's
// counters are registered as engine_stage_*_total{stage="name"} series,
// so the same numbers feed the end-of-run table and any live
// /metrics or expvar exposition.
type Stats struct {
	mu     sync.Mutex
	reg    *obs.Registry
	stages []*StageStats
	// byName is copy-on-write: lookups of existing stages, one per
	// stage invocation, take no lock; mu serializes additions.
	byName atomic.Pointer[map[string]*StageStats]
}

// NewStats returns an empty stats collector backed by a private
// metrics registry.
func NewStats() *Stats { return NewStatsOn(nil) }

// NewStatsOn returns a stats collector registering its stage counters
// in reg (a process-wide registry served by obs.StartDebug, say). A
// nil reg creates a private registry.
func NewStatsOn(reg *obs.Registry) *Stats {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Stats{reg: reg}
}

// Registry returns the backing metrics registry (never nil for a
// non-nil Stats; a zero-value Stats creates its registry lazily).
func (s *Stats) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registryLocked()
}

func (s *Stats) registryLocked() *obs.Registry {
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	return s.reg
}

// Stage returns the collector of the named stage, creating it on first
// use. A nil *Stats returns nil (collection disabled).
func (s *Stats) Stage(name string) *StageStats {
	if s == nil {
		return nil
	}
	if m := s.byName.Load(); m != nil && (*m)[name] != nil {
		return (*m)[name]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[string]*StageStats{}
	if old := s.byName.Load(); old != nil {
		if st := (*old)[name]; st != nil {
			return st
		}
		m = maps.Clone(*old)
	}
	reg := s.registryLocked()
	label := fmt.Sprintf("{stage=%q}", name)
	st := &StageStats{
		Name:    name,
		wall:    reg.Counter("engine_stage_wall_ns_total" + label),
		calls:   reg.Counter("engine_stage_calls_total" + label),
		queries: reg.Counter("engine_stage_queries_total" + label),
		items:   reg.Counter("engine_stage_items_total" + label),
		saved:   reg.Counter("engine_stage_saved_total" + label),
	}
	m[name] = st
	s.byName.Store(&m)
	s.stages = append(s.stages, st)
	return st
}

// StageStats collects one pipeline stage's wall time, invocation count,
// query count, work-item count and reuse count. The counters live in
// the owning Stats' metrics registry; all methods are atomic and
// tolerate nil receivers.
type StageStats struct {
	Name    string
	wall    *obs.Counter // cumulative nanoseconds
	calls   *obs.Counter // completed invocations
	queries *obs.Counter // SAT queries / worklist evaluations
	items   *obs.Counter // units of work processed (SCCs, candidates, rows)
	saved   *obs.Counter // work units reused from a cache instead of recomputed
}

// AddQueries adds n to the stage's query counter.
func (st *StageStats) AddQueries(n int64) {
	if st != nil {
		st.queries.Add(n)
	}
}

// AddItems adds n to the stage's work-item counter (e.g. SCC components
// condensed, resolve candidates evaluated).
func (st *StageStats) AddItems(n int64) {
	if st != nil {
		st.items.Add(n)
	}
}

// AddSaved adds n to the stage's reuse counter: work units answered from
// a cached result (nodes whose attributes were reused from the parent
// network's fixed point) instead of recomputed.
func (st *StageStats) AddSaved(n int64) {
	if st != nil {
		st.saved.Add(n)
	}
}

// Wall returns the cumulative wall time.
func (st *StageStats) Wall() time.Duration {
	if st == nil {
		return 0
	}
	return time.Duration(st.wall.Value())
}

// Calls returns the number of completed invocations.
func (st *StageStats) Calls() int64 {
	if st == nil {
		return 0
	}
	return st.calls.Value()
}

// Queries returns the cumulative query count.
func (st *StageStats) Queries() int64 {
	if st == nil {
		return 0
	}
	return st.queries.Value()
}

// Items returns the cumulative work-item count.
func (st *StageStats) Items() int64 {
	if st == nil {
		return 0
	}
	return st.items.Value()
}

// Saved returns the cumulative reuse count.
func (st *StageStats) Saved() int64 {
	if st == nil {
		return 0
	}
	return st.saved.Value()
}

// StageSnapshot is one stage's totals at snapshot time.
type StageSnapshot struct {
	Name    string
	Wall    time.Duration
	Calls   int64
	Queries int64
	Items   int64
	Saved   int64
}

// stageRank fixes the rendering order of the known pipeline stages to
// their execution order. First-use order is not deterministic — worker
// pools of concurrent circuits reach stages in racy order — so
// Snapshot and String sort by this rank (unknown stages follow,
// alphabetically) to keep run-over-run output and reports comparable.
var stageRank = map[string]int{
	"one-cycle":       0,
	"sim-filter":      1, // runs inside one-cycle; reported right after it
	"bridge":          2,
	"closure":         3,
	"pure-resolve":    4,
	"propagate":       5,
	"propagate-delta": 6,
	"resolve":         7,
}

// stageLess orders stage names deterministically: known pipeline
// stages first in execution order, then unknown stages by name.
func stageLess(a, b string) bool {
	ra, oka := stageRank[a]
	rb, okb := stageRank[b]
	switch {
	case oka && okb:
		return ra < rb
	case oka:
		return true
	case okb:
		return false
	default:
		return a < b
	}
}

// Snapshot returns the per-stage totals in deterministic pipeline
// order (see stageRank).
func (s *Stats) Snapshot() []StageSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	stages := append([]*StageStats(nil), s.stages...)
	s.mu.Unlock()
	sort.SliceStable(stages, func(i, j int) bool { return stageLess(stages[i].Name, stages[j].Name) })
	out := make([]StageSnapshot, len(stages))
	for i, st := range stages {
		out[i] = StageSnapshot{
			Name: st.Name, Wall: st.Wall(), Calls: st.Calls(),
			Queries: st.Queries(), Items: st.Items(), Saved: st.Saved(),
		}
	}
	return out
}

// StageReports returns the per-stage totals as run-report rows, in the
// same deterministic order as Snapshot.
func (s *Stats) StageReports() []obs.StageReport {
	snap := s.Snapshot()
	out := make([]obs.StageReport, len(snap))
	for i, st := range snap {
		out[i] = obs.StageReport{
			Name: st.Name, WallNS: int64(st.Wall), Calls: st.Calls,
			Queries: st.Queries, Items: st.Items, Saved: st.Saved,
		}
	}
	return out
}

// String renders the per-stage totals as an aligned table. It is safe
// on the zero value and on a nil *Stats (both render the empty
// placeholder).
func (s *Stats) String() string {
	snap := s.Snapshot()
	if len(snap) == 0 {
		return "engine: no stages recorded"
	}
	nameW := len("stage")
	for _, st := range snap {
		if len(st.Name) > nameW {
			nameW = len(st.Name)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-*s  %12s  %8s  %10s  %8s  %8s\n",
		nameW, "stage", "wall", "calls", "queries", "items", "saved")
	for _, st := range snap {
		fmt.Fprintf(&sb, "%-*s  %12s  %8d  %10d  %8d  %8d\n", nameW, st.Name,
			st.Wall.Round(time.Microsecond), st.Calls, st.Queries, st.Items, st.Saved)
	}
	return strings.TrimRight(sb.String(), "\n")
}
