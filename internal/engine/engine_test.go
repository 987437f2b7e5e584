package engine

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.WorkerCount() < 1 {
		t.Fatalf("WorkerCount = %d, want >= 1", o.WorkerCount())
	}
	if o.Ctx() == nil {
		t.Fatal("Ctx must never be nil")
	}
	if o.Err() != nil {
		t.Fatal("background context must not be cancelled")
	}
	o.Logf("no sink: must not panic")
	st := o.Begin("x")
	st.AddQueries(1)
	if st.End() < 0 {
		t.Fatal("negative stage duration")
	}
}

func TestOptionsExplicit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	o := Options{
		Workers: 3,
		Context: ctx,
		Logger:  slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})),
		Stats:   NewStats(),
	}
	if o.WorkerCount() != 3 {
		t.Fatalf("WorkerCount = %d", o.WorkerCount())
	}
	if o.Err() == nil {
		t.Fatal("cancelled context must report an error")
	}
	o.Logf("hello %d", 1)
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `msg="hello 1"`) {
		t.Fatalf("progress records = %q", lines)
	}
	o.Begin("s").End()
	if o.Stats.Stage("s").Calls() != 1 {
		t.Fatal("Begin/End with Stats must count one call")
	}
}

func TestNilStageIsSafe(t *testing.T) {
	var st *StageStats
	st.AddQueries(7)
	st.AddItems(3)
	st.AddSaved(2)
	if st.Wall() != 0 || st.Calls() != 0 || st.Queries() != 0 || st.Items() != 0 || st.Saved() != 0 {
		t.Fatal("nil stage must report zeros")
	}
	var s *Stats
	if s.Stage("x") != nil || s.Snapshot() != nil {
		t.Fatal("nil Stats must be inert")
	}
	var zero Stage
	zero.AddItems(1)
	zero.SetAttrs(obs.Int("k", 1))
	zero.End()
}

func TestStageAccumulates(t *testing.T) {
	s := NewStats()
	stage := Options{Stats: s}.Begin("one-cycle")
	time.Sleep(time.Millisecond)
	stage.AddQueries(5)
	stage.AddItems(4)
	stage.AddItems(3)
	stage.AddSaved(11)
	stage.End()
	st := s.Stage("one-cycle")
	if st.Wall() <= 0 {
		t.Fatal("wall time not recorded")
	}
	if st.Calls() != 1 || st.Queries() != 5 {
		t.Fatalf("calls=%d queries=%d", st.Calls(), st.Queries())
	}
	if st.Items() != 7 || st.Saved() != 11 {
		t.Fatalf("items=%d saved=%d", st.Items(), st.Saved())
	}
	if s.Stage("one-cycle") != st {
		t.Fatal("Stage must return the same collector per name")
	}
}

// TestStatsConcurrent hammers one Stats from many goroutines; the race
// detector (CI's -race job) validates the synchronization, and the
// totals validate atomicity.
func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"one-cycle", "bridge", "closure", "propagate"}
			for i := 0; i < perG; i++ {
				st := Options{Stats: s}.Begin(names[(g+i)%len(names)])
				st.AddQueries(1)
				st.End()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, st := range s.Snapshot() {
		total += st.Queries
		if st.Calls != st.Queries {
			t.Fatalf("stage %s: calls=%d queries=%d", st.Name, st.Calls, st.Queries)
		}
	}
	if total != goroutines*perG {
		t.Fatalf("total queries = %d, want %d", total, goroutines*perG)
	}
}

func TestSnapshotOrderAndString(t *testing.T) {
	s := NewStats()
	s.Stage("b").AddQueries(1)
	s.Stage("a").AddQueries(2)
	s.Stage("b").AddQueries(1)
	s.Stage("a").AddItems(9)
	s.Stage("a").AddSaved(6)
	snap := s.Snapshot()
	// Unknown stages render in name order regardless of first use.
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if snap[0].Items != 9 || snap[0].Saved != 6 {
		t.Fatalf("snapshot counters wrong: %+v", snap[0])
	}
	out := s.String()
	if !strings.Contains(out, "stage") || !strings.Contains(out, "b") || !strings.Contains(out, "a") {
		t.Fatalf("table missing content:\n%s", out)
	}
	if !strings.Contains(out, "items") || !strings.Contains(out, "saved") {
		t.Fatalf("table missing counter columns:\n%s", out)
	}
	var empty *Stats
	if empty.String() != "engine: no stages recorded" {
		t.Fatal("empty stats string wrong")
	}
}

// TestSnapshotPipelineOrder pins the deterministic rendering order:
// known pipeline stages in execution order, regardless of the racy
// first-use order of concurrent circuits, then unknown stages by name.
func TestSnapshotPipelineOrder(t *testing.T) {
	s := NewStats()
	// Touch stages in scrambled order, as racing workers would.
	for _, name := range []string{"resolve", "zz-custom", "closure", "propagate-delta", "one-cycle", "aa-custom", "bridge", "pure-resolve", "propagate"} {
		s.Stage(name).AddQueries(1)
	}
	want := []string{"one-cycle", "bridge", "closure", "pure-resolve",
		"propagate", "propagate-delta", "resolve", "aa-custom", "zz-custom"}
	snap := s.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d stages, want %d", len(snap), len(want))
	}
	for i, w := range want {
		if snap[i].Name != w {
			t.Fatalf("snapshot[%d] = %q, want %q (full: %+v)", i, snap[i].Name, w, snap)
		}
	}
}

// TestZeroValueStats covers the zero-value paths: a zero Stats is a
// working collector (lazy registry), and String is safe before any
// stage is recorded.
func TestZeroValueStats(t *testing.T) {
	var s Stats
	if got := s.String(); got != "engine: no stages recorded" {
		t.Fatalf("zero-value String = %q", got)
	}
	if len(s.Snapshot()) != 0 {
		t.Fatal("zero-value Snapshot must be empty")
	}
	s.Stage("closure").AddItems(3)
	if s.Registry() == nil {
		t.Fatal("zero-value Stats must create its registry lazily")
	}
	if got := s.Stage("closure").Items(); got != 3 {
		t.Fatalf("items = %d, want 3", got)
	}
	if out := s.String(); !strings.Contains(out, "closure") {
		t.Fatalf("String missing stage:\n%s", out)
	}
}

// TestStatsBackedByRegistry validates that stage counters are live in
// the backing metrics registry under their labelled series names.
func TestStatsBackedByRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStatsOn(reg)
	s.Stage("closure").AddQueries(5)
	s.Stage("closure").AddItems(2)
	snap := reg.Snapshot()
	if got := snap[`engine_stage_queries_total{stage="closure"}`]; got != int64(5) {
		t.Fatalf("registry queries = %v, want 5", got)
	}
	if got := snap[`engine_stage_items_total{stage="closure"}`]; got != int64(2) {
		t.Fatalf("registry items = %v, want 2", got)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `engine_stage_queries_total{stage="closure"} 5`) {
		t.Fatalf("prometheus exposition missing series:\n%s", buf.String())
	}
	reports := s.StageReports()
	if len(reports) != 1 || reports[0].Name != "closure" || reports[0].Queries != 5 {
		t.Fatalf("StageReports = %+v", reports)
	}
}

// TestBeginEndDoesNotAllocate pins the stage handle's cost with
// tracing off: opening and closing a stage allocates nothing, with or
// without stats.
func TestBeginEndDoesNotAllocate(t *testing.T) {
	for _, o := range []Options{{}, {Stats: NewStats()}} {
		o.Begin("warm").End() // the first use registers the stage
		allocs := testing.AllocsPerRun(100, func() {
			st := o.Begin("warm")
			st.AddQueries(1)
			st.AddItems(2)
			st.AddSaved(3)
			st.End()
		})
		if allocs != 0 {
			t.Fatalf("stats=%v: %v allocs per Begin/End, want 0", o.Stats != nil, allocs)
		}
	}
}

// TestUnrecordedStageReadsNoClock checks that a stage nothing records
// reads no clock (End returns 0), while a Timed one still measures.
func TestUnrecordedStageReadsNoClock(t *testing.T) {
	var o Options
	st := o.Begin("quiet")
	time.Sleep(100 * time.Microsecond)
	if d := st.End(); d != 0 {
		t.Fatalf("unrecorded stage End = %v, want 0 (no clock read)", d)
	}
	st = o.Begin("timed").Timed()
	time.Sleep(100 * time.Microsecond)
	if d := st.End(); d < 100*time.Microsecond {
		t.Fatalf("Timed stage End = %v, want >= 100µs", d)
	}
	// With stats, Timed keeps Begin's clock reading.
	s := NewStats()
	st = Options{Stats: s}.Begin("counted").Timed()
	time.Sleep(100 * time.Microsecond)
	if d := st.End(); d < 100*time.Microsecond || s.Stage("counted").Wall() != d {
		t.Fatalf("End = %v, wall counter %v", d, s.Stage("counted").Wall())
	}
}

// TestStageWallIsEndDuration checks that the stage's wall counter and
// its span record the interval End returns.
func TestStageWallIsEndDuration(t *testing.T) {
	s := NewStats()
	sink := &obs.CollectorSink{}
	o := Options{Stats: s, Tracer: obs.NewTracer(sink)}
	var total time.Duration
	for i := 0; i < 3; i++ {
		st := o.Begin("closure")
		time.Sleep(100 * time.Microsecond)
		d := st.End()
		total += d
		evs := sink.Events()
		if got := evs[len(evs)-1].DurU; got != d.Microseconds() {
			t.Fatalf("span dur = %dµs, End returned %v", got, d)
		}
	}
	if got := s.Stage("closure").Wall(); got != total {
		t.Fatalf("wall counter = %v, End durations sum to %v", got, total)
	}
	if got := s.Stage("closure").Calls(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
}

// TestStageSpanNesting checks the stage's span: it carries the stage
// name, nests under the run's parent span, and parents the spans of the
// stage's child options.
func TestStageSpanNesting(t *testing.T) {
	sink := &obs.CollectorSink{}
	tr := obs.NewTracer(sink)
	root := tr.Start(nil, "secure")
	o := Options{Tracer: tr, TraceParent: root}
	st := o.Begin("one-cycle", obs.Int("roots", 2))
	child := st.Options().Begin("sim-filter")
	child.End()
	st.SetAttrs(obs.Int("sat_queries", 5))
	st.End()
	root.End()
	evs := sink.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d spans, want 3", len(evs))
	}
	sim, stage := evs[0], evs[1]
	if sim.Name != "sim-filter" || stage.Name != "one-cycle" {
		t.Fatalf("span names = %q, %q", sim.Name, stage.Name)
	}
	if stage.Parent != root.ID() || sim.Parent != stage.Span {
		t.Fatalf("parents: stage %d (want %d), sim %d (want %d)", stage.Parent, root.ID(), sim.Parent, stage.Span)
	}
	if stage.Attrs["roots"] != int64(2) || stage.Attrs["sat_queries"] != int64(5) {
		t.Fatalf("stage attrs = %v", stage.Attrs)
	}
}
