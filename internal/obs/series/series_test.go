package series

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// t0 is an arbitrary fixed epoch; tests tick the store manually so
// nothing depends on the wall clock.
var t0 = time.Unix(1_700_000_000, 0)

func tick(s *Store, base time.Time, n int, step time.Duration) time.Time {
	now := base
	for i := 0; i < n; i++ {
		now = now.Add(step)
		s.Sample(now)
	}
	return now
}

func TestCounterWindowDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c1 := reg.Counter(`req_total{endpoint="a"}`)
	c2 := reg.Counter(`req_total{endpoint="b"}`)
	st := NewStore(reg, Config{Interval: time.Second, Retention: time.Minute})

	now := t0
	st.Sample(now)
	for i := 0; i < 10; i++ {
		c1.Inc()
		c2.Add(2)
		now = now.Add(time.Second)
		st.Sample(now)
	}
	// Family-wide delta over the last 5s: 5*(1+2).
	d, ok := st.CounterWindowDelta("req_total", 5*time.Second, now)
	if !ok || d != 15 {
		t.Fatalf("delta = %v ok=%v, want 15", d, ok)
	}
	// Over the whole window: 10*(1+2).
	d, _ = st.CounterWindowDelta("req_total", time.Minute, now)
	if d != 30 {
		t.Fatalf("full delta = %v, want 30", d)
	}
	if _, ok := st.CounterWindowDelta("nonexistent", time.Minute, now); ok {
		t.Fatal("unknown family reported ok")
	}
}

func TestGaugeWindowStats(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("queue_depth")
	st := NewStore(reg, Config{Interval: time.Second, Retention: time.Minute})

	now := t0
	for i, v := range []int64{1, 5, 3, 9, 2} {
		g.Set(v)
		now = now.Add(time.Second)
		st.Sample(now)
		_ = i
	}
	gw, ok := st.GaugeWindowStats("queue_depth", 4, time.Minute, now)
	if !ok {
		t.Fatal("no stats")
	}
	if gw.Samples != 5 || gw.Min != 1 || gw.Max != 9 || gw.Last != 2 {
		t.Fatalf("stats = %+v", gw)
	}
	if gw.Avg != 4 {
		t.Fatalf("avg = %v, want 4", gw.Avg)
	}
	if gw.AboveLimit != 2 { // 5 and 9 exceed limit 4
		t.Fatalf("above limit = %d, want 2", gw.AboveLimit)
	}
}

func TestHistogramWindowQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", 0.01, 0.1, 1)
	st := NewStore(reg, Config{Interval: time.Second, Retention: time.Minute})

	now := t0
	// First sample: 10 fast observations.
	for i := 0; i < 10; i++ {
		h.Observe(0.005)
	}
	now = tick(st, now, 1, time.Second)
	// Second epoch: 10 slow observations land; the trailing-1s window
	// must see ONLY them (cumulative-bucket delta, not totals).
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	now = tick(st, now, 1, time.Second)

	d, ok := st.FamilyHistogramWindow("lat_seconds", time.Second, now)
	if !ok {
		t.Fatal("no window")
	}
	if d.Count != 10 {
		t.Fatalf("windowed count = %d, want 10 (delta, not cumulative)", d.Count)
	}
	if q := d.Quantile(0.5); q != 1 { // 0.5 falls in the (0.1, 1] bucket
		t.Fatalf("windowed p50 = %v, want 1", q)
	}
	// Whole retention: both epochs, median in the fastest bucket half.
	d, _ = st.FamilyHistogramWindow("lat_seconds", time.Minute, now)
	if d.Quantile(0.5) != 0.01 {
		t.Fatalf("full p50 = %v, want 0.01", d.Quantile(0.5))
	}
	if got := d.CountAtMost(0.1); got != 10 {
		t.Fatalf("CountAtMost(0.1) = %d, want 10", got)
	}
	if !math.IsNaN(d.Quantile(0)) || !math.IsNaN(d.Quantile(1.5)) {
		t.Fatal("out-of-range quantiles must be NaN")
	}
	empty := HistDelta{Bounds: []float64{1}, Counts: []int64{0, 0}}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty window quantile must be NaN")
	}
	over := HistDelta{Bounds: []float64{1}, Counts: []int64{0, 3}}
	if !math.IsInf(over.Quantile(0.9), 1) {
		t.Fatal("overflow-bucket quantile must be +Inf")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("ticks_total")
	// 5s retention at 1s interval = 6 slots.
	st := NewStore(reg, Config{Interval: time.Second, Retention: 5 * time.Second})
	now := t0
	for i := 0; i < 50; i++ {
		c.Inc()
		now = now.Add(time.Second)
		st.Sample(now)
	}
	// Only the newest retention window is answerable: the full-window
	// delta is bounded by the slot count, not the 50 written samples.
	d, ok := st.CounterWindowDelta("ticks_total", 5*time.Second, now)
	if !ok || d != 5 {
		t.Fatalf("wrapped delta = %v ok=%v, want 5", d, ok)
	}
}

func TestMaxSeriesCapAndFootprintBound(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Interval: time.Second, Retention: 10 * time.Second, MaxSeries: 8}
	st := NewStore(reg, cfg)
	// 20 distinct series against a cap of 8.
	for i := 0; i < 18; i++ {
		reg.Counter(fmt.Sprintf("c%02d_total", i)).Inc()
	}
	reg.Histogram("h_seconds", 0.01, 0.1, 1).Observe(0.5)
	reg.Gauge("g").Set(1)
	now := tick(st, t0, 30, time.Second)
	_ = now

	if got := st.SeriesCount(); got != 8 {
		t.Fatalf("series count = %d, want the cap 8", got)
	}
	if got := st.DroppedSeries(); got != 12 {
		t.Fatalf("dropped = %d, want 12", got)
	}

	// The documented ceiling: MaxSeries x slots x (sampleBytes + bucket
	// payload) — with the widest histogram in play (3 bounds + Inf).
	bound := st.FootprintBound(3)
	if fp := st.Footprint(); fp <= 0 || fp > bound {
		t.Fatalf("footprint %d outside (0, %d]", fp, bound)
	}
}

func TestFootprintStopsGrowingOnceFull(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("h_seconds", 0.01, 0.1, 1).Observe(0.5)
	reg.Counter("c_total").Inc()
	st := NewStore(reg, Config{Interval: time.Second, Retention: 5 * time.Second})
	tick(st, t0, 10, time.Second)
	full := st.Footprint()
	tick(st, t0.Add(10*time.Second), 100, time.Second)
	if got := st.Footprint(); got != full {
		t.Fatalf("footprint grew after rings filled: %d -> %d", full, got)
	}
}

func TestQueryDocumentRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("req_total")
	st := NewStore(reg, Config{Interval: time.Second, Retention: time.Minute})
	now := t0
	for i := 0; i < 30; i++ {
		c.Add(3)
		now = now.Add(time.Second)
		st.Sample(now)
	}
	h, err := st.Query("req_total", 10*time.Second, 2*time.Second, "", now)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fn != "rate" || h.Kind != KindCounter {
		t.Fatalf("defaults = %s/%s", h.Kind, h.Fn)
	}
	if len(h.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(h.Points))
	}
	for _, p := range h.Points {
		if p.V == nil || *p.V != 3 { // 3/s counted over 2s steps
			t.Fatalf("point = %+v, want rate 3", p)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadDoc[History](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(h.Points) || back.Name != h.Name {
		t.Fatalf("round trip mismatch: %+v", back)
	}

	// The reader rejects a wrong schema and broken alignment.
	bad := *h
	bad.Schema = "rsnsec.metrics-history/v999"
	var bb bytes.Buffer
	if err := obs.WriteDoc(&bb, &bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("unknown schema written: %v", err)
	}
	if err := json.NewEncoder(&bb).Encode(&bad); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadDoc[History](&bb); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("unknown schema accepted: %v", err)
	}
	bad2 := *h
	bad2.Points = append([]HistoryPoint(nil), h.Points...)
	bad2.Points[1].T++ // misaligned
	if err := bad2.Validate(); err == nil {
		t.Fatal("misaligned points accepted")
	}

	// Unknown family and invalid fn are query errors.
	if _, err := st.Query("nope", time.Minute, time.Second, "", now); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := st.Query("req_total", time.Minute, time.Second, "p50", now); err == nil {
		t.Fatal("histogram fn accepted on a counter")
	}
}

func TestQueryGaugeAndHistogramFns(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("depth")
	h := reg.Histogram("lat_seconds", 0.01, 0.1, 1)
	st := NewStore(reg, Config{Interval: time.Second, Retention: time.Minute})
	now := t0
	for i := 1; i <= 10; i++ {
		g.Set(int64(i))
		h.Observe(0.05)
		now = now.Add(time.Second)
		st.Sample(now)
	}
	doc, err := st.Query("depth", 10*time.Second, 5*time.Second, "max", now)
	if err != nil {
		t.Fatal(err)
	}
	lastPt := doc.Points[len(doc.Points)-1]
	if lastPt.V == nil || *lastPt.V != 10 {
		t.Fatalf("gauge max point = %+v", lastPt)
	}
	doc, err = st.Query("lat_seconds", 10*time.Second, 5*time.Second, "p90", now)
	if err != nil {
		t.Fatal(err)
	}
	lastPt = doc.Points[len(doc.Points)-1]
	if lastPt.V == nil || *lastPt.V != 0.1 {
		t.Fatalf("hist p90 point = %+v", lastPt)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStartStopBackgroundSampler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total").Inc()
	st := NewStore(reg, Config{Interval: 10 * time.Millisecond, Retention: time.Second})
	st.Start()
	deadline := time.Now().Add(2 * time.Second)
	for st.SeriesCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st.Stop()
	st.Stop() // idempotent
	if st.SeriesCount() == 0 {
		t.Fatal("background sampler never sampled")
	}
	var nilStore *Store
	nilStore.Start()
	nilStore.Stop()
	nilStore.Sample(time.Now())
}
