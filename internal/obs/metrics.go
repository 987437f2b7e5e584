package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value
// is ready to use; all methods tolerate nil receivers (a nil Counter
// discards updates and reads as zero), so hot paths never branch on
// whether metrics collection is enabled.
type Counter struct {
	v atomic.Int64
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (e.g. worker count, queue depth).
// All methods tolerate nil receivers.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the default histogram bounds for SAT-query and
// stage latencies, in seconds: 10µs .. ~10s, quarter-decade spaced.
var DefLatencyBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
}

// Histogram is a fixed-bucket cumulative histogram with atomic
// updates, Prometheus-compatible (le-labelled cumulative buckets plus
// _sum and _count series). All methods tolerate nil receivers.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns an upper bound for the q-quantile from the bucket
// counts (see BucketQuantile). An empty histogram returns 0 (nothing
// observed bounds at zero), matching the nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return BucketQuantile(q, h.count.Load(), h.bounds, h.BucketCounts(nil), 0)
}

// BucketQuantile returns an upper bound for the q-quantile of total
// observations bucketed by counts under the sorted upper bounds: the
// bound of the first bucket whose cumulative count reaches q, or +Inf
// when the sample lands in the overflow bucket after the last bound.
// q must lie in (0, 1]; anything else returns NaN. With no
// observations it returns empty.
func BucketQuantile(q float64, total int64, bounds []float64, counts []int64, empty float64) float64 {
	if math.IsNaN(q) || q <= 0 || q > 1 {
		return math.NaN()
	}
	if total <= 0 {
		return empty
	}
	target := max(int64(math.Ceil(q*float64(total))), 1)
	var cum int64
	for i, c := range counts {
		if cum += c; cum >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return math.Inf(1)
}

// Bounds returns a copy of the histogram's sorted bucket upper bounds
// (the implicit +Inf overflow bucket is not listed). A nil receiver
// returns nil.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts copies the per-bucket (non-cumulative) observation
// counts into dst — len(Bounds())+1 entries, the last being the +Inf
// overflow bucket — reusing dst's backing array when it is large
// enough. The counts are read bucket-by-bucket without a lock, so a
// snapshot taken under concurrent Observe calls may be internally
// skewed by in-flight observations; each bucket value is itself
// monotone, which is what windowed-delta consumers (the series
// sampler) need. A nil receiver returns dst unchanged (nil for a nil
// dst).
func (h *Histogram) BucketCounts(dst []int64) []int64 {
	if h == nil {
		return dst[:0]
	}
	n := len(h.buckets)
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
	return dst
}

// FloatGauge is a settable float64 metric for values that lose too
// much to int64 truncation (cumulative CPU seconds, ratios). Like the
// other metric kinds, all methods tolerate nil receivers.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics and renders them for exposition. Metric
// names follow the Prometheus convention and may carry a literal label
// set, e.g. `engine_stage_wall_ns_total{stage="closure"}`; series of
// one family (the name up to the label braces) are grouped in the
// exposition regardless of registration order. A nil *Registry hands
// out nil metrics, so callers thread an optional registry without
// branching.
type Registry struct {
	mu     sync.Mutex
	order  []string
	byName map[string]any
	help   map[string]string

	// collectors run before each exposition so on-demand values
	// (runtime health, load gauges) are fresh at scrape time.
	collMu     sync.Mutex
	collectors []func()
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any), help: make(map[string]string)}
}

// lookup returns the named metric, creating it with mk on first use.
func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	r.byName[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use. It
// panics when the name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return new(Counter) })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q registered as %T, not a counter", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return new(Gauge) })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q registered as %T, not a gauge", name, m))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored; an empty list
// uses DefLatencyBuckets).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	m := r.lookup(name, func() any { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q registered as %T, not a histogram", name, m))
	}
	return h
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return new(FloatGauge) })
	g, ok := m.(*FloatGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q registered as %T, not a float gauge", name, m))
	}
	return g
}

// AddCollector registers fn to run immediately before each exposition
// (WritePrometheus, Snapshot), refreshing pull-style gauges — values
// that are cheap to compute on demand but wasteful to keep current
// (goroutine counts, queue wait ages, predicted backlog). fn runs
// outside the registry lock and may therefore set metrics freely; it
// must not itself trigger an exposition.
func (r *Registry) AddCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.collMu.Lock()
	r.collectors = append(r.collectors, fn)
	r.collMu.Unlock()
}

// collect runs the registered collectors (outside the metrics lock).
func (r *Registry) collect() {
	r.collMu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.collMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Collect runs the registered collectors without rendering anything —
// the refresh half of an exposition. Non-rendering consumers that read
// metric values directly (the series sampler) call it so pull-style
// gauges are as fresh in their samples as they are in a scrape.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.collect()
}

// SetHelp attaches a HELP line to a metric family.
func (r *Registry) SetHelp(family, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = help
	r.mu.Unlock()
}

// family splits a series name into its family and the literal label
// block (including braces, empty when unlabelled).
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// snapshot returns the registered names in registration order plus the
// metric map, under the lock.
func (r *Registry) snapshot() ([]string, map[string]any, map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	metrics := make(map[string]any, len(r.byName))
	for k, v := range r.byName {
		metrics[k] = v
	}
	helps := make(map[string]string, len(r.help))
	for k, v := range r.help {
		helps[k] = v
	}
	return names, metrics, helps
}

// Each calls fn for every registered metric in registration order. The
// value is *Counter, *Gauge, *FloatGauge or *Histogram.
func (r *Registry) Each(fn func(name string, metric any)) {
	if r == nil {
		return
	}
	names, metrics, _ := r.snapshot()
	for _, n := range names {
		fn(n, metrics[n])
	}
}

// Snapshot returns a plain map of current values: int64 for counters
// and gauges; histograms expand into name_count and name_sum entries.
// It backs the expvar exposition.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	r.collect()
	out := make(map[string]any)
	r.Each(func(name string, m any) {
		switch x := m.(type) {
		case *Counter:
			out[name] = x.Value()
		case *Gauge:
			out[name] = x.Value()
		case *FloatGauge:
			out[name] = x.Value()
		case *Histogram:
			fam, labels := family(name)
			out[fam+"_count"+labels] = x.Count()
			out[fam+"_sum"+labels] = x.Sum()
		}
	})
	return out
}

// mergeLabels splices an extra label into a literal label block.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Series of one family are grouped
// under a single TYPE line; families appear in first-registration
// order, series in registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.collect()
	names, metrics, helps := r.snapshot()
	var famOrder []string
	byFam := make(map[string][]string)
	for _, n := range names {
		f, _ := family(n)
		if _, ok := byFam[f]; !ok {
			famOrder = append(famOrder, f)
		}
		byFam[f] = append(byFam[f], n)
	}
	var sb strings.Builder
	for _, f := range famOrder {
		series := byFam[f]
		if h := helps[f]; h != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f, h)
		}
		switch metrics[series[0]].(type) {
		case *Counter:
			fmt.Fprintf(&sb, "# TYPE %s counter\n", f)
		case *Gauge, *FloatGauge:
			fmt.Fprintf(&sb, "# TYPE %s gauge\n", f)
		case *Histogram:
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", f)
		}
		for _, n := range series {
			_, labels := family(n)
			switch x := metrics[n].(type) {
			case *Counter:
				fmt.Fprintf(&sb, "%s%s %d\n", f, labels, x.Value())
			case *Gauge:
				fmt.Fprintf(&sb, "%s%s %d\n", f, labels, x.Value())
			case *FloatGauge:
				fmt.Fprintf(&sb, "%s%s %s\n", f, labels, formatFloat(x.Value()))
			case *Histogram:
				var cum int64
				for i, b := range x.bounds {
					cum += x.buckets[i].Load()
					le := fmt.Sprintf("le=%q", formatFloat(b))
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f, mergeLabels(labels, le), cum)
				}
				cum += x.buckets[len(x.bounds)].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", f, mergeLabels(labels, `le="+Inf"`), cum)
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f, labels, formatFloat(x.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f, labels, x.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
