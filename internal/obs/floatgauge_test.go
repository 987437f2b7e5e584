package obs

import (
	"strings"
	"testing"
)

func TestFloatGaugeSetValueAndRender(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("cpu_seconds_total")
	if g.Value() != 0 {
		t.Fatalf("zero value = %v", g.Value())
	}
	g.Set(12.5)
	if g.Value() != 12.5 {
		t.Fatalf("value = %v, want 12.5", g.Value())
	}
	if r.FloatGauge("cpu_seconds_total") != g {
		t.Fatal("second lookup returned a different gauge")
	}
	snap := r.Snapshot()
	if snap["cpu_seconds_total"] != 12.5 {
		t.Fatalf("snapshot = %v", snap["cpu_seconds_total"])
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE cpu_seconds_total gauge") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "cpu_seconds_total 12.5") {
		t.Fatalf("missing rendered value:\n%s", out)
	}

	var nilG *FloatGauge
	nilG.Set(3) // must not panic
	if nilG.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
}

func TestHistogramBoundsAndBucketCounts(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.01, 0.1, 1}
	h := r.Histogram("h", bounds...)
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 7} {
		h.Observe(v)
	}
	bounds[0] = 99 // the histogram must hold a copy
	// The bounds, as the exposition renders them: one cumulative bucket
	// per bound, ascending, then the +Inf overflow.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "h_bucket") {
			got = append(got, line)
		}
	}
	wantLines := []string{`h_bucket{le="0.01"} 1`, `h_bucket{le="0.1"} 2`, `h_bucket{le="1"} 3`, `h_bucket{le="+Inf"} 5`}
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("bucket lines = %q, want %q", got, wantLines)
	}
	counts := h.BucketCounts(nil)
	want := []int64{1, 1, 1, 2} // last = +Inf overflow
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	// dst reuse: a big-enough buffer comes back resliced, not realloced.
	buf := make([]int64, 8)
	reused := h.BucketCounts(buf)
	if &reused[0] != &buf[0] || len(reused) != 4 {
		t.Fatalf("dst not reused: len=%d", len(reused))
	}
	var nilH *Histogram
	if got := nilH.BucketCounts(buf); len(got) != 0 {
		t.Fatalf("nil histogram counts = %v", got)
	}
	var nilR *Registry
	if nilR.Histogram("h") != nil {
		t.Fatal("nil registry returned a histogram")
	}
}

func TestRuntimeMetricsExportCPUSeconds(t *testing.T) {
	r := NewRegistry()
	EnableRuntimeMetrics(r)
	// Burn a little CPU so the runtime's estimate is plausibly nonzero,
	// then collect via a snapshot.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i % 7
	}
	_ = x
	snap := r.Snapshot()
	v, ok := snap["go_cpu_seconds_total"]
	if !ok {
		t.Fatalf("go_cpu_seconds_total missing from snapshot: %v", snap)
	}
	f, ok := v.(float64)
	if !ok || f < 0 {
		t.Fatalf("go_cpu_seconds_total = %v (%T), want float64 >= 0", v, v)
	}
}
