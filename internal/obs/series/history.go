// Step-aligned query evaluator and the rsnsec.metrics-history/v1
// document: the read side of the series store. A query names a metric
// family, a trailing window, a step, and an aggregation function; the
// evaluator walks the retained ring samples and emits one point per
// step boundary, producing a document shaped like a tiny range-query
// response — schema-versioned like every other rsnsec artifact, with a
// validating reader so downstream tooling rejects what it cannot
// parse.
package series

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// HistorySchema is the metrics-history document schema identifier.
// Bump the suffix on any incompatible field change; readers reject
// unknown versions.
const HistorySchema = "rsnsec.metrics-history/v1"

// Aggregation functions accepted by Query, by kind:
//
//	counter:   rate (default; per-second increase), increase
//	gauge:     avg (default), min, max, last
//	histogram: p50 (default), p90, p99, avg, rate
//
// Unknown combinations are rejected by Query.
var queryFns = map[Kind][]string{
	KindCounter:   {"rate", "increase"},
	KindGauge:     {"avg", "min", "max", "last"},
	KindHistogram: {"p50", "p90", "p99", "avg", "rate"},
}

// DefaultFn returns the default aggregation for a kind.
func DefaultFn(k Kind) string {
	if fns, ok := queryFns[k]; ok {
		return fns[0]
	}
	return ""
}

// HistoryPoint is one evaluated step. T is the step's right edge in
// unix milliseconds; V is absent (null) when the step held no data —
// series younger than the window, or a quantile over an empty step.
type HistoryPoint struct {
	T int64    `json:"t_unix_ms"`
	V *float64 `json:"v"`
}

// History is the rsnsec.metrics-history/v1 document: one evaluated
// range query over the in-process series store.
type History struct {
	Schema string `json:"schema"`
	// Name is the queried metric family.
	Name string `json:"name"`
	// Kind is the family's sampled kind.
	Kind Kind `json:"kind"`
	// Fn is the aggregation evaluated per step.
	Fn string `json:"fn"`
	// WindowMS / StepMS echo the evaluated range.
	WindowMS int64 `json:"window_ms"`
	StepMS   int64 `json:"step_ms"`
	// IntervalMS is the store's sampling interval — the native
	// resolution under the steps.
	IntervalMS int64 `json:"interval_ms"`
	// Points hold one entry per step, oldest first, strictly
	// step-aligned and increasing.
	Points []HistoryPoint `json:"points"`
}

// Validate checks the document's structural invariants.
func (h *History) Validate() error {
	if h == nil {
		return fmt.Errorf("history: nil")
	}
	if h.Schema != HistorySchema {
		return fmt.Errorf("history: schema %q, this reader wants %q", h.Schema, HistorySchema)
	}
	if h.Name == "" {
		return fmt.Errorf("history: missing name")
	}
	fns, ok := queryFns[h.Kind]
	if !ok {
		return fmt.Errorf("history: unknown kind %q", h.Kind)
	}
	if !contains(fns, h.Fn) {
		return fmt.Errorf("history: fn %q not valid for kind %q (want one of %v)", h.Fn, h.Kind, fns)
	}
	if h.StepMS <= 0 {
		return fmt.Errorf("history: step_ms %d, want > 0", h.StepMS)
	}
	if h.WindowMS < h.StepMS {
		return fmt.Errorf("history: window_ms %d < step_ms %d", h.WindowMS, h.StepMS)
	}
	for i, p := range h.Points {
		if p.T%h.StepMS != 0 {
			return fmt.Errorf("history: point %d: t %d not aligned to step %d", i, p.T, h.StepMS)
		}
		if i > 0 && p.T != h.Points[i-1].T+h.StepMS {
			return fmt.Errorf("history: point %d: t %d does not follow %d by one step", i, p.T, h.Points[i-1].T)
		}
		if p.V != nil && (math.IsNaN(*p.V) || math.IsInf(*p.V, 0)) {
			return fmt.Errorf("history: point %d: non-finite value", i)
		}
	}
	return nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// Query evaluates fn over family on a step grid covering the trailing
// window, ending at the last step boundary at or before now. An empty
// fn uses the kind's default; a step below the sampling interval is
// raised to it (steps finer than the data would fabricate resolution).
// Unknown families and invalid fn/kind combinations return an error.
func (s *Store) Query(family string, window, step time.Duration, fn string, now time.Time) (*History, error) {
	kind, ok := s.FamilyKind(family)
	if !ok {
		return nil, fmt.Errorf("series: unknown family %q (known: %v)", family, s.Families())
	}
	if step <= 0 {
		step = s.cfg.interval()
	}
	if step < s.cfg.interval() {
		step = s.cfg.interval()
	}
	if window < step {
		window = step
	}
	if window > s.cfg.retention() {
		window = s.cfg.retention()
	}
	if fn == "" {
		fn = DefaultFn(kind)
	}
	if !contains(queryFns[kind], fn) {
		return nil, fmt.Errorf("series: fn %q not valid for %s family %q (want one of %v)",
			fn, kind, family, queryFns[kind])
	}

	stepMS := step.Milliseconds()
	endMS := now.UnixMilli() / stepMS * stepMS
	steps := int(window.Milliseconds() / stepMS)
	if steps < 1 {
		steps = 1
	}
	h := &History{
		Schema:     HistorySchema,
		Name:       family,
		Kind:       kind,
		Fn:         fn,
		WindowMS:   window.Milliseconds(),
		StepMS:     stepMS,
		IntervalMS: s.cfg.interval().Milliseconds(),
		Points:     make([]HistoryPoint, 0, steps),
	}
	for i := steps - 1; i >= 0; i-- {
		tMS := endMS - int64(i)*stepMS
		t := time.UnixMilli(tMS)
		if v, ok := s.evalStep(family, kind, fn, step, t); ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			vv := v
			h.Points = append(h.Points, HistoryPoint{T: tMS, V: &vv})
		} else {
			h.Points = append(h.Points, HistoryPoint{T: tMS})
		}
	}
	return h, nil
}

// evalStep evaluates one aggregation over the step ending at t.
func (s *Store) evalStep(family string, kind Kind, fn string, step time.Duration, t time.Time) (float64, bool) {
	switch kind {
	case KindCounter:
		d, ok := s.CounterWindowDelta(family, step, t)
		if !ok {
			return 0, false
		}
		if fn == "rate" {
			return d / step.Seconds(), true
		}
		return d, true
	case KindGauge:
		return s.gaugeStep(family, fn, step, t)
	case KindHistogram:
		d, ok := s.FamilyHistogramWindow(family, step, t)
		if !ok {
			return 0, false
		}
		switch fn {
		case "avg":
			if d.Count <= 0 {
				return 0, false
			}
			return d.Sum / float64(d.Count), true
		case "rate":
			return float64(d.Count) / step.Seconds(), true
		default: // p50 / p90 / p99
			q := map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99}[fn]
			return d.Quantile(q), true
		}
	}
	return 0, false
}

// gaugeStep aggregates every gauge series of a family over one step.
// Multi-series families merge samples (avg of all, min of all, ...);
// "last" takes the newest sample across the family.
func (s *Store) gaugeStep(family string, fn string, step time.Duration, t time.Time) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t1 := t.UnixNano()
	lo := t1 - int64(step)
	var (
		n     int
		sum   float64
		minV  = math.Inf(1)
		maxV  = math.Inf(-1)
		last  float64
		lastT int64 = math.MinInt64
	)
	for _, b := range s.familySeriesLocked(family) {
		if b.kind != KindGauge {
			continue
		}
		b.inWindow(lo, t1, func(sm sample) {
			n++
			sum += sm.v
			minV = math.Min(minV, sm.v)
			maxV = math.Max(maxV, sm.v)
			if sm.t >= lastT {
				lastT, last = sm.t, sm.v
			}
		})
	}
	if n == 0 {
		return 0, false
	}
	switch fn {
	case "min":
		return minV, true
	case "max":
		return maxV, true
	case "last":
		return last, true
	default:
		return sum / float64(n), true
	}
}

// KnownFns returns the fn vocabulary per kind, for error messages and
// the endpoint's self-description.
func KnownFns() map[Kind][]string {
	out := make(map[Kind][]string, len(queryFns))
	for k, v := range queryFns {
		out[k] = append([]string(nil), v...)
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}
