package main

import (
	"sort"
	"sync"

	"repro/internal/obs"
)

// probe is what a traced run (--trace 1) hands the program: a tracer
// whose spans give each layer's self time, and a metrics registry whose
// counters give each layer's work counts. In an untraced run every field
// is nil and the program runs uninstrumented.
type probe struct {
	tr   *obs.Tracer
	reg  *obs.Registry
	sink *layerSink
	// base holds the counter values at the start of the measurement.
	base map[string]int64
}

func newProbe() probe {
	sink := &layerSink{}
	return probe{tr: obs.NewTracer(sink), reg: obs.NewRegistry(), sink: sink}
}

// timeLayer is one per-layer time metric: the summed self time of some
// span names per operation. The pipeline spans are the program's own
// (internal/core, dep, hybrid, serve); parse, encode, miss, hit and
// delta are the benchmark's, around its calls into the program.
type timeLayer struct {
	metric string
	spans  []string
}

var timeLayers = []timeLayer{
	{"parse_ms", []string{"parse"}},
	{"one_cycle_ms", []string{"one-cycle"}},
	{"sat_ms", []string{"query"}},
	{"bridge_ms", []string{"bridge"}},
	{"closure_ms", []string{"closure"}},
	{"pure_resolve_ms", []string{"pure-resolve"}},
	{"propagate_ms", []string{"propagate", "propagate-delta"}},
	{"resolve_ms", []string{"resolve"}},
	{"secure_ms", []string{"secure"}},
	{"encode_ms", []string{"encode"}},
	// The daemon's job span: its self time is the served job's work
	// outside the pipeline (parsing, report encoding, result store).
	{"serve_job_ms", []string{"job"}},
	// The served client's requests: their self time is HTTP, queueing
	// and polling around the daemon's jobs.
	{"served_miss_ms", []string{"miss"}},
	{"served_hit_ms", []string{"hit"}},
	{"served_delta_ms", []string{"delta"}},
}

// countLayer is one per-layer count metric: the growth of one of the
// program's registry counters per operation.
type countLayer struct {
	metric, series string
}

var countLayers = []countLayer{
	{"sat_queries", "dep_sat_queries_total"},
	{"sat_conflicts", "dep_sat_conflicts_total"},
	// Support leaves the simulation prefilter proved functional, each a
	// SAT query saved.
	{"sim_resolved", "dep_sim_resolved_total"},
	{"closure_sccs", `engine_stage_items_total{stage="closure"}`},
	{"propagate_evals", `engine_stage_queries_total{stage="propagate"}`},
	{"propagate_delta_evals", `engine_stage_queries_total{stage="propagate-delta"}`},
	{"resolve_candidates", `engine_stage_items_total{stage="resolve"}`},
	// Nodes an incremental delta reused from its parent's fixed point.
	{"delta_saved", `engine_stage_saved_total{stage="propagate-delta"}`},
}

// layerSpan marks the span names the time layers are built from.
var layerSpan = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range timeLayers {
		for _, name := range l.spans {
			m[name] = true
		}
	}
	return m
}()

// start forgets what set-up and warm-up recorded: the measurement
// starts now.
func (p *probe) start() {
	p.sink.reset()
	p.base = map[string]int64{}
	for _, c := range countLayers {
		p.base[c.series] = p.reg.Counter(c.series).Value()
	}
}

// perOp returns every per-layer metric averaged over ops operations of
// mean latency meanMS, plus outside_ms: the part of the mean latency no
// span covers (the benchmark's own bookkeeping and scheduling). Layer
// times are scaled by f, the run's speed factor, as the latency is.
func (p *probe) perOp(ops int, f, meanMS float64) map[string]metric {
	self := p.sink.selfTimes()
	out := map[string]metric{}
	inside := 0.0
	for _, l := range timeLayers {
		var v float64
		for _, name := range l.spans {
			v += float64(self[name]) / 1e3 * f
		}
		v /= float64(ops)
		out[l.metric] = metric{Value: v, Unit: "ms"}
		inside += v
	}
	out["outside_ms"] = metric{Value: meanMS - inside, Unit: "ms"}
	for _, c := range countLayers {
		n := p.reg.Counter(c.series).Value() - p.base[c.series]
		out[c.metric] = metric{Value: float64(n) / float64(ops), Unit: "count"}
	}
	return out
}

// interval is one finished span.
type interval struct {
	name       string
	start, dur int64 // µs on the tracer's clock
}

// layerSink keeps the spans of a run the layers are built from (and
// drops every other span) so their self times can be computed when the
// run ends.
type layerSink struct {
	mu    sync.Mutex
	spans []interval
}

// Emit implements obs.Sink.
func (s *layerSink) Emit(ev obs.Event) {
	if !layerSpan[ev.Name] {
		return
	}
	s.mu.Lock()
	s.spans = append(s.spans, interval{ev.Name, ev.StartU, ev.DurU})
	s.mu.Unlock()
}

func (s *layerSink) reset() {
	s.mu.Lock()
	s.spans = nil
	s.mu.Unlock()
}

// selfTimes returns per span name the summed self time in µs: a span's
// duration minus the part of its interval the spans inside it cover.
// One client and one engine worker run the program, so its spans never
// overlap partially: each lies inside the innermost span that was open
// when it started. The nesting is read from time, not from parent links,
// because the program parents some spans to an enclosing stage rather
// than the one they run in, and the daemon's spans have no link to the
// client's.
func (s *layerSink) selfTimes() map[string]int64 {
	s.mu.Lock()
	spans := append([]interval(nil), s.spans...)
	s.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].dur > spans[j].dur
	})
	var open []int // indices of enclosing spans, innermost last
	covered := make([]int64, len(spans))
	for i, sp := range spans {
		for len(open) > 0 {
			top := spans[open[len(open)-1]]
			if top.start+top.dur > sp.start {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			p := open[len(open)-1]
			// Clip to the parent: timestamps are truncated to µs.
			covered[p] += min(sp.start+sp.dur, spans[p].start+spans[p].dur) - sp.start
		}
		open = append(open, i)
	}
	self := map[string]int64{}
	for i, sp := range spans {
		self[sp.name] += sp.dur - covered[i]
	}
	return self
}
