// Package series is a bounded, in-process time-series store over an
// obs.Registry: a sampler reads every registered metric on a fixed
// interval into per-series ring buffers, and a step-aligned query
// evaluator turns the retained samples into windowed rates (counters),
// last/min/max/avg (gauges) and windowed quantiles (histograms,
// computed from cumulative-bucket deltas). It is what gives the
// point-in-time /metrics exposition a memory: "what was p99 request
// latency over the last ten minutes" becomes answerable in process,
// with no external scrape pipeline.
//
// # Memory ceiling
//
// Retention is bounded by construction, never by eviction heuristics:
//
//   - each series keeps a ring of slots = ceil(Retention/Interval)
//     samples and nothing else;
//   - at most MaxSeries distinct series are tracked — series appearing
//     beyond the cap are counted (DroppedSeries) and ignored;
//   - a scalar sample is sampleBytes (56 B); a histogram sample adds
//     8 bytes per bucket (its bounds plus the +Inf overflow bucket).
//
// The store therefore never retains more than
//
//	MaxSeries × slots × (sampleBytes + 8×(maxBuckets+1))
//
// bytes of samples, where maxBuckets is the widest histogram's bucket
// count. Footprint reports the actual retained bytes; the bound is
// asserted in tests.
package series

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind is the sampled metric kind.
type Kind string

// Sampled metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Config sizes a Store. The zero value is usable: 15s interval, 1h
// retention, 512 series.
type Config struct {
	// Interval is the sampling period; <= 0 uses 15s.
	Interval time.Duration
	// Retention is how far back samples are kept; <= 0 uses 1h. The
	// per-series ring holds ceil(Retention/Interval) slots.
	Retention time.Duration
	// MaxSeries bounds the distinct series tracked; <= 0 uses 512.
	// Series first seen beyond the cap are dropped (DroppedSeries
	// counts them), so one labelled-family explosion cannot grow the
	// store without bound.
	MaxSeries int
}

func (c Config) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 15 * time.Second
}

func (c Config) retention() time.Duration {
	if c.Retention > 0 {
		return c.Retention
	}
	return time.Hour
}

func (c Config) maxSeries() int {
	if c.MaxSeries > 0 {
		return c.MaxSeries
	}
	return 512
}

// slots is the ring capacity: enough samples to cover the retention
// window at the sampling interval, plus one so a full window always
// has a baseline sample at (or before) its left edge.
func (c Config) slots() int {
	n := int((c.retention() + c.interval() - 1) / c.interval())
	if n < 1 {
		n = 1
	}
	return n + 1
}

// sample is one stored observation. Scalar kinds use t and v;
// histograms use t, count, sum and buckets (per-bucket counts, the
// last entry being the +Inf overflow bucket).
type sample struct {
	t       int64 // unix nanoseconds
	v       float64
	count   int64
	sum     float64
	buckets []int64
}

// sampleBytes is the in-memory size of one scalar sample slot (the
// struct itself; histogram bucket payloads are accounted separately).
const sampleBytes = 56

// seriesBuf is one series' ring buffer.
type seriesBuf struct {
	name   string
	family string
	labels string // literal label block including braces ("" unlabelled)
	kind   Kind
	bounds []float64 // histogram bucket upper bounds (nil otherwise)

	buf   []sample
	next  int
	count int // total samples ever written
}

// write appends one sample, overwriting the oldest beyond capacity.
func (b *seriesBuf) write(s sample) {
	slot := &b.buf[b.next]
	if s.buckets != nil {
		// Reuse the evicted slot's bucket slice when it fits, so a full
		// ring stops allocating entirely.
		if cap(slot.buckets) >= len(s.buckets) {
			dst := slot.buckets[:len(s.buckets)]
			copy(dst, s.buckets)
			s.buckets = dst
		} else {
			s.buckets = append([]int64(nil), s.buckets...)
		}
	}
	*slot = s
	b.next = (b.next + 1) % len(b.buf)
	b.count++
}

// at returns the latest sample with timestamp <= t.
func (b *seriesBuf) at(t int64) (sample, bool) {
	n := b.count
	if n > len(b.buf) {
		n = len(b.buf)
	}
	for i := 1; i <= n; i++ {
		s := b.buf[(b.next-i+len(b.buf))%len(b.buf)]
		if s.t <= t {
			return s, true
		}
	}
	return sample{}, false
}

// inWindow calls fn for every sample with lo < t <= hi, oldest first.
func (b *seriesBuf) inWindow(lo, hi int64, fn func(sample)) {
	n := b.count
	if n > len(b.buf) {
		n = len(b.buf)
	}
	start := (b.next - n + len(b.buf)) % len(b.buf)
	for i := 0; i < n; i++ {
		s := b.buf[(start+i)%len(b.buf)]
		if s.t > lo && s.t <= hi {
			fn(s)
		}
	}
}

// Store samples a registry into bounded per-series rings.
type Store struct {
	reg *obs.Registry
	cfg Config

	mu      sync.Mutex
	byName  map[string]*seriesBuf
	order   []string
	dropped map[string]bool // series names refused by the MaxSeries cap
	scratch []int64         // histogram snapshot buffer, reused per tick

	stop chan struct{}
	done chan struct{}
}

// NewStore returns a store sampling reg under cfg. Nothing is sampled
// until Sample or Start is called.
func NewStore(reg *obs.Registry, cfg Config) *Store {
	return &Store{
		reg:     reg,
		cfg:     cfg,
		byName:  make(map[string]*seriesBuf),
		dropped: make(map[string]bool),
	}
}

// Interval returns the effective sampling interval.
func (s *Store) Interval() time.Duration { return s.cfg.interval() }

// Retention returns the effective retention window.
func (s *Store) Retention() time.Duration { return s.cfg.retention() }

// Start launches the background sampler goroutine (one immediate
// sample, then one per interval). Stop terminates it.
func (s *Store) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.Sample(time.Now())
		t := time.NewTicker(s.cfg.interval())
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				s.Sample(now)
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop terminates the background sampler and waits for it to exit.
// Safe to call when Start never ran, and more than once.
func (s *Store) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Sample takes one sample of every registry metric, stamped at now.
// Registry collectors run first, so pull-style gauges (load signal,
// runtime health) are as fresh here as in a scrape. Callable directly
// for tests and manual ticking; the background sampler calls it too.
func (s *Store) Sample(now time.Time) {
	if s == nil {
		return
	}
	s.reg.Collect()
	t := now.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Each(func(name string, m any) {
		b := s.bufForLocked(name, m)
		if b == nil {
			return
		}
		switch x := m.(type) {
		case *obs.Counter:
			b.write(sample{t: t, v: float64(x.Value())})
		case *obs.Gauge:
			b.write(sample{t: t, v: float64(x.Value())})
		case *obs.FloatGauge:
			b.write(sample{t: t, v: x.Value()})
		case *obs.Histogram:
			s.scratch = x.BucketCounts(s.scratch)
			b.write(sample{t: t, count: x.Count(), sum: x.Sum(), buckets: s.scratch})
		}
	})
}

// bufForLocked resolves (or creates, capacity permitting) the ring of
// one series.
func (s *Store) bufForLocked(name string, m any) *seriesBuf {
	if b, ok := s.byName[name]; ok {
		return b
	}
	if s.dropped[name] {
		return nil
	}
	if len(s.byName) >= s.cfg.maxSeries() {
		s.dropped[name] = true
		return nil
	}
	b := &seriesBuf{name: name, buf: make([]sample, s.cfg.slots())}
	b.family, b.labels = splitFamily(name)
	switch x := m.(type) {
	case *obs.Counter:
		b.kind = KindCounter
	case *obs.Gauge, *obs.FloatGauge:
		b.kind = KindGauge
	case *obs.Histogram:
		b.kind = KindHistogram
		b.bounds = x.Bounds()
	default:
		return nil
	}
	s.byName[name] = b
	s.order = append(s.order, name)
	return b
}

// splitFamily splits a series name into its family and the literal
// label block (including braces, empty when unlabelled).
func splitFamily(name string) (fam, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}

// DroppedSeries returns how many distinct series were refused by the
// MaxSeries cap.
func (s *Store) DroppedSeries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dropped)
}

// SeriesCount returns the number of tracked series.
func (s *Store) SeriesCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byName)
}

// Footprint returns the retained sample bytes across all series — the
// quantity the package-level memory ceiling bounds. It counts ring
// slots (allocated up front) and histogram bucket payloads (allocated
// as slots fill, then reused).
func (s *Store) Footprint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, b := range s.byName {
		total += int64(len(b.buf)) * sampleBytes
		for i := range b.buf {
			total += int64(cap(b.buf[i].buckets)) * 8
		}
	}
	return total
}

// FootprintBound returns the store's documented memory ceiling in
// bytes, given the widest histogram bucket count in play (bounds plus
// the +Inf overflow bucket).
func (s *Store) FootprintBound(maxBuckets int) int64 {
	return int64(s.cfg.maxSeries()) * int64(s.cfg.slots()) * (sampleBytes + 8*int64(maxBuckets+1))
}

// FamilyKind reports the kind of a metric family (or exact series
// name) and whether the store tracks it.
func (s *Store) FamilyKind(family string) (Kind, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.byName {
		if b.family == family || b.name == family {
			return b.kind, true
		}
	}
	return "", false
}

// familySeriesLocked returns the rings of one family (exact series
// names also match), in first-seen order.
func (s *Store) familySeriesLocked(family string) []*seriesBuf {
	var out []*seriesBuf
	for _, name := range s.order {
		b := s.byName[name]
		if b.family == family || b.name == family {
			out = append(out, b)
		}
	}
	return out
}

// HistDelta is a windowed histogram: the increase of a cumulative
// histogram (or a merged family of them) between two sample points.
type HistDelta struct {
	Bounds []float64
	// Counts are per-bucket increases; the last entry is the +Inf
	// overflow bucket.
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile returns an upper bound for the q-quantile of the windowed
// distribution — the bound of the first bucket whose cumulative delta
// reaches q, +Inf when it lands in the overflow bucket, NaN when the
// window holds no observations or q lies outside (0, 1].
func (d HistDelta) Quantile(q float64) float64 {
	var total int64
	for _, c := range d.Counts {
		total += c
	}
	return obs.BucketQuantile(q, total, d.Bounds, d.Counts, math.NaN())
}

// CountAtMost returns how many windowed observations fell into buckets
// whose upper bound is <= threshold — the "good event" count of a
// latency SLO. A threshold between two bounds rounds down to the last
// covered bucket (the conservative direction: observations are never
// over-credited as fast).
func (d HistDelta) CountAtMost(threshold float64) int64 {
	var n int64
	for i, b := range d.Bounds {
		if b > threshold {
			break
		}
		n += d.Counts[i]
	}
	return n
}

// histDeltaLocked computes one ring's increase between the samples at
// (or before) t0 and t1. A missing baseline uses zero (the series is
// younger than the window; its full history is the delta).
func histDeltaLocked(b *seriesBuf, t0, t1 int64) (HistDelta, bool) {
	s1, ok := b.at(t1)
	if !ok {
		return HistDelta{}, false
	}
	d := HistDelta{Bounds: b.bounds, Counts: make([]int64, len(s1.buckets))}
	copy(d.Counts, s1.buckets)
	d.Count, d.Sum = s1.count, s1.sum
	if s0, ok := b.at(t0); ok {
		for i := range d.Counts {
			if i < len(s0.buckets) {
				d.Counts[i] -= s0.buckets[i]
			}
		}
		d.Count -= s0.count
		d.Sum -= s0.sum
	}
	return d, true
}

// FamilyHistogramWindow merges the trailing-window increase of every
// histogram series in a family (e.g. all endpoints of
// serve_request_seconds). Series whose bucket bounds differ from the
// first one's are skipped. ok is false when no series has a sample.
func (s *Store) FamilyHistogramWindow(family string, window time.Duration, now time.Time) (HistDelta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t1 := now.UnixNano()
	t0 := t1 - int64(window)
	var merged HistDelta
	any := false
	for _, b := range s.familySeriesLocked(family) {
		if b.kind != KindHistogram {
			continue
		}
		d, ok := histDeltaLocked(b, t0, t1)
		if !ok {
			continue
		}
		if !any {
			merged = d
			any = true
			continue
		}
		if !sameBounds(merged.Bounds, d.Bounds) {
			continue
		}
		for i := range d.Counts {
			merged.Counts[i] += d.Counts[i]
		}
		merged.Count += d.Count
		merged.Sum += d.Sum
	}
	return merged, any
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterWindowDelta returns the increase of a counter family over the
// trailing window, summed across the family's series. A series younger
// than the window contributes its full value. ok is false when no
// series has a sample.
func (s *Store) CounterWindowDelta(family string, window time.Duration, now time.Time) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t1 := now.UnixNano()
	t0 := t1 - int64(window)
	var total float64
	any := false
	for _, b := range s.familySeriesLocked(family) {
		if b.kind != KindCounter {
			continue
		}
		s1, ok := b.at(t1)
		if !ok {
			continue
		}
		any = true
		v := s1.v
		if s0, ok := b.at(t0); ok {
			v -= s0.v
		}
		if v > 0 {
			total += v
		}
	}
	return total, any
}

// GaugeWindow summarizes a gauge series' samples over the trailing
// window: last/min/max/avg plus how many samples exceeded limit (the
// saturation SLO's "bad event" count). ok is false when the window
// holds no samples.
type GaugeWindow struct {
	Last, Min, Max, Avg float64
	Samples             int
	AboveLimit          int
}

// GaugeWindowStats summarizes one gauge series (by exact name) over
// the trailing window.
func (s *Store) GaugeWindowStats(name string, limit float64, window time.Duration, now time.Time) (GaugeWindow, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.byName[name]
	if !ok || b.kind != KindGauge {
		return GaugeWindow{}, false
	}
	t1 := now.UnixNano()
	gw := GaugeWindow{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	b.inWindow(t1-int64(window), t1, func(sm sample) {
		gw.Samples++
		gw.Last = sm.v
		sum += sm.v
		gw.Min = math.Min(gw.Min, sm.v)
		gw.Max = math.Max(gw.Max, sm.v)
		if sm.v > limit {
			gw.AboveLimit++
		}
	})
	if gw.Samples == 0 {
		return GaugeWindow{}, false
	}
	gw.Avg = sum / float64(gw.Samples)
	return gw, true
}

// Families returns the tracked metric families, sorted — the
// discoverable query surface of /debug/metrics/history.
func (s *Store) Families() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, name := range s.order {
		f := s.byName[name].family
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the store configuration (for logs).
func (s *Store) String() string {
	return fmt.Sprintf("series.Store{interval=%s retention=%s maxSeries=%d slots=%d}",
		s.cfg.interval(), s.cfg.retention(), s.cfg.maxSeries(), s.cfg.slots())
}
