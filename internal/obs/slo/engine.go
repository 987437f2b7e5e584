package slo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/series"
)

// StatusSchema is the slo-status document schema identifier. Bump the
// suffix on any incompatible field change; readers reject unknown
// versions.
const StatusSchema = "rsnsec.slo-status/v1"

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Name   string  `json:"name"`
	Type   string  `json:"type"`
	Target float64 `json:"target"`

	// FastWindowMS / SlowWindowMS / BurnThreshold echo the evaluated
	// rule, so a status document is interpretable on its own.
	FastWindowMS  int64   `json:"fast_window_ms"`
	SlowWindowMS  int64   `json:"slow_window_ms"`
	BurnThreshold float64 `json:"burn_threshold"`

	// NoData is true when neither window held any events or samples —
	// the objective is unjudged, burn rates read zero, and Breaching is
	// false (an idle daemon is not failing its SLOs).
	NoData bool `json:"no_data"`

	// BurnFast / BurnSlow are the windowed burn rates: the bad-event
	// fraction divided by the budget fraction (1 - target). Burn 1
	// spends the budget exactly as fast as the target allows; burn 10
	// spends it 10x faster.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`

	// Events / BadEvents count the slow window's judged events.
	Events    int64 `json:"events"`
	BadEvents int64 `json:"bad_events"`

	// ErrorBudgetRemaining is 1 - BurnSlow clamped to [0, 1]: the
	// slow-window budget share still unspent.
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`

	// Breaching is true when both windows burn at or above the
	// threshold — fast to react, slow to confirm.
	Breaching bool `json:"breaching"`

	// GateReady echoes whether this objective couples to /readyz.
	GateReady bool `json:"gate_ready,omitempty"`
}

// Status is the rsnsec.slo-status/v1 document served on /v1/slo.
type Status struct {
	Schema string `json:"schema"`
	// EvaluatedUnixMS stamps the evaluation time.
	EvaluatedUnixMS int64 `json:"evaluated_unix_ms"`
	// Objectives hold one entry per configured objective, in config
	// order.
	Objectives []ObjectiveStatus `json:"objectives"`
	// Breaching is true when any objective is breaching.
	Breaching bool `json:"breaching"`
}

// Validate checks the document's structural invariants.
func (s *Status) Validate() error {
	if s == nil {
		return fmt.Errorf("slo status: nil")
	}
	if s.Schema != StatusSchema {
		return fmt.Errorf("slo status: schema %q, this reader wants %q", s.Schema, StatusSchema)
	}
	any := false
	seen := make(map[string]bool)
	for i := range s.Objectives {
		o := &s.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo status: objective %d: empty name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo status: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if o.Type != TypeLatency && o.Type != TypeErrorRate && o.Type != TypeSaturation {
			return fmt.Errorf("slo status: objective %q: unknown type %q", o.Name, o.Type)
		}
		if o.Target < 0 || o.Target >= 1 {
			return fmt.Errorf("slo status: objective %q: target %v, want [0, 1)", o.Name, o.Target)
		}
		if o.BurnFast < 0 || o.BurnSlow < 0 ||
			math.IsNaN(o.BurnFast) || math.IsNaN(o.BurnSlow) ||
			math.IsInf(o.BurnFast, 0) || math.IsInf(o.BurnSlow, 0) {
			return fmt.Errorf("slo status: objective %q: invalid burn rates (%v, %v)", o.Name, o.BurnFast, o.BurnSlow)
		}
		if o.ErrorBudgetRemaining < 0 || o.ErrorBudgetRemaining > 1 {
			return fmt.Errorf("slo status: objective %q: budget remaining %v outside [0, 1]", o.Name, o.ErrorBudgetRemaining)
		}
		if o.BadEvents < 0 || o.Events < 0 || o.BadEvents > o.Events {
			return fmt.Errorf("slo status: objective %q: bad events %d outside [0, %d]", o.Name, o.BadEvents, o.Events)
		}
		if o.Breaching {
			any = true
		}
	}
	if s.Breaching != any {
		return fmt.Errorf("slo status: breaching flag %v inconsistent with objectives", s.Breaching)
	}
	return nil
}

// Engine evaluates a config against a series store and re-exports the
// results as registry gauges. Evaluations are memoized for one store
// sampling interval: the underlying data only changes when a sample
// lands, so hammering /v1/slo (or /readyz with a gating objective)
// costs one window scan per interval, not per request.
type Engine struct {
	cfg   *Config
	store *series.Store
	now   func() time.Time // collector clock; a test seam

	mu     sync.Mutex
	last   *Status
	lastAt time.Time

	burnG   map[string]*obs.Gauge
	budgetG map[string]*obs.Gauge
}

// NewEngine wires an engine over a validated config and a series
// store, registering per-objective gauges in reg:
//
//	slo_burn_rate{objective="..."}               slow-window burn x1000
//	slo_error_budget_remaining{objective="..."}  budget share x1000
//
// Both are scaled by 1000 because registry gauges are int64-valued
// (burn 1500 = 1.5x budget speed; remaining 250 = 25% left).
func NewEngine(cfg *Config, store *series.Store, reg *obs.Registry) (*Engine, error) {
	if cfg == nil || store == nil {
		return nil, fmt.Errorf("slo: engine needs config and series store")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w := cfg.MaxWindow(); w > store.Retention() {
		return nil, fmt.Errorf("slo: objective window %s exceeds series retention %s — raise -history-retention",
			w, store.Retention())
	}
	e := &Engine{
		cfg:     cfg,
		store:   store,
		now:     time.Now,
		burnG:   make(map[string]*obs.Gauge),
		budgetG: make(map[string]*obs.Gauge),
	}
	if reg != nil {
		reg.SetHelp("slo_burn_rate",
			"Slow-window SLO burn rate x1000 (1000 = burning the error budget exactly at target speed).")
		reg.SetHelp("slo_error_budget_remaining",
			"Slow-window SLO error budget remaining x1000 (1000 = untouched, 0 = spent).")
		for i := range cfg.Objectives {
			name := cfg.Objectives[i].Name
			e.burnG[name] = reg.Gauge(fmt.Sprintf("slo_burn_rate{objective=%q}", name))
			e.budgetG[name] = reg.Gauge(fmt.Sprintf("slo_error_budget_remaining{objective=%q}", name))
			e.budgetG[name].Set(1000)
		}
		reg.AddCollector(func() { e.Evaluate(e.now()) })
	}
	return e, nil
}

// Config returns the engine's objectives config.
func (e *Engine) Config() *Config { return e.cfg }

// Evaluate returns the objectives' state as of now, reusing the
// previous evaluation when it is younger than one sampling interval.
func (e *Engine) Evaluate(now time.Time) *Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last != nil && now.Sub(e.lastAt) >= 0 && now.Sub(e.lastAt) < e.store.Interval() {
		return e.last
	}
	st := &Status{Schema: StatusSchema, EvaluatedUnixMS: now.UnixMilli()}
	for i := range e.cfg.Objectives {
		o := &e.cfg.Objectives[i]
		os := e.evalObjective(o, now)
		st.Objectives = append(st.Objectives, os)
		if os.Breaching {
			st.Breaching = true
		}
		if g := e.burnG[o.Name]; g != nil {
			g.Set(int64(os.BurnSlow * 1000))
		}
		if g := e.budgetG[o.Name]; g != nil {
			g.Set(int64(os.ErrorBudgetRemaining * 1000))
		}
	}
	e.last, e.lastAt = st, now
	return st
}

// Breaching reports whether any ready-gating objective is currently
// breaching — the /readyz coupling.
func (e *Engine) Breaching(now time.Time) bool {
	st := e.Evaluate(now)
	for i := range st.Objectives {
		if st.Objectives[i].GateReady && st.Objectives[i].Breaching {
			return true
		}
	}
	return false
}

func (e *Engine) evalObjective(o *Objective, now time.Time) ObjectiveStatus {
	os := ObjectiveStatus{
		Name:          o.Name,
		Type:          o.Type,
		Target:        o.Target,
		FastWindowMS:  o.FastWindow().Milliseconds(),
		SlowWindowMS:  o.SlowWindow().Milliseconds(),
		BurnThreshold: o.Burn(),
		GateReady:     o.GateReady,
	}
	fastBad, fastTotal, okF := e.window(o, o.FastWindow(), now)
	slowBad, slowTotal, okS := e.window(o, o.SlowWindow(), now)
	if (!okF && !okS) || (fastTotal == 0 && slowTotal == 0) {
		os.NoData = true
		os.ErrorBudgetRemaining = 1
		return os
	}
	budget := 1 - o.Target
	os.BurnFast = burn(fastBad, fastTotal, budget)
	os.BurnSlow = burn(slowBad, slowTotal, budget)
	os.Events, os.BadEvents = slowTotal, slowBad
	os.ErrorBudgetRemaining = math.Max(0, math.Min(1, 1-os.BurnSlow))
	os.Breaching = os.BurnFast >= o.Burn() && os.BurnSlow >= o.Burn()
	return os
}

// burn converts a bad/total ratio into a burn rate against the budget
// fraction, clamped so int64 gauge scaling stays sane.
func burn(bad, total int64, budget float64) float64 {
	if total <= 0 || budget <= 0 {
		return 0
	}
	b := float64(bad) / float64(total) / budget
	if b > 1e6 {
		b = 1e6
	}
	return b
}

// window counts one objective's (bad, total) events over a trailing
// window.
func (e *Engine) window(o *Objective, w time.Duration, now time.Time) (bad, total int64, ok bool) {
	switch o.Type {
	case TypeLatency:
		d, ok := e.store.FamilyHistogramWindow(o.Metric, w, now)
		if !ok {
			return 0, 0, false
		}
		var n int64
		for _, c := range d.Counts {
			n += c
		}
		good := d.CountAtMost(o.ThresholdSeconds)
		return n - good, n, true
	case TypeErrorRate:
		g, okG := e.store.CounterWindowDelta(o.GoodMetric, w, now)
		b, okB := e.store.CounterWindowDelta(o.BadMetric, w, now)
		if !okG && !okB {
			return 0, 0, false
		}
		return int64(b), int64(g + b), true
	case TypeSaturation:
		gw, ok := e.store.GaugeWindowStats(o.Metric, o.Limit, w, now)
		if !ok {
			return 0, 0, false
		}
		return int64(gw.AboveLimit), int64(gw.Samples), true
	}
	return 0, 0, false
}
