package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a deterministic now() advancing 100µs per call.
func fakeClock(epoch time.Time) func() time.Time {
	n := 0
	return func() time.Time {
		n++
		return epoch.Add(time.Duration(n) * 100 * time.Microsecond)
	}
}

func TestSpanNesting(t *testing.T) {
	sink := &CollectorSink{}
	tr := NewTracer(sink)
	run := tr.Start(nil, "run")
	circuit := tr.Start(run, "circuit", Str("benchmark", "BasicSCB"))
	stage := tr.Start(circuit, "one-cycle")
	q := tr.Start(stage, "query", Int("root_ff", 3))
	q.End()
	stage.End()
	circuit.End()
	run.End()

	evs := sink.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	parentOf := make(map[string]uint64)
	idOf := make(map[string]uint64)
	for _, ev := range evs {
		parentOf[ev.Name] = ev.Parent
		idOf[ev.Name] = ev.Span
	}
	if parentOf["run"] != 0 {
		t.Fatal("root span has a parent")
	}
	if parentOf["circuit"] != idOf["run"] || parentOf["one-cycle"] != idOf["circuit"] ||
		parentOf["query"] != idOf["one-cycle"] {
		t.Fatalf("broken parent chain: ids=%v parents=%v", idOf, parentOf)
	}
	if evs[0].Name != "query" {
		t.Fatal("spans must emit at End (innermost first)")
	}
	if evs[0].Attrs["root_ff"] != int64(3) {
		t.Fatalf("attrs lost: %v", evs[0].Attrs)
	}
}

func TestSamplingKeepsHierarchy(t *testing.T) {
	sink := &CollectorSink{}
	tr := NewTracer(sink)
	tr.SampleEvery("query", 4)
	root := tr.Start(nil, "run")
	for i := 0; i < 10; i++ {
		q := tr.Start(root, "query")
		// Children of unrecorded spans still parent correctly.
		c := tr.Start(q, "sub")
		if c.ID() == 0 || q.ID() == 0 {
			t.Fatal("sampled-out span lost its ID")
		}
		c.End()
		q.End()
	}
	root.End()
	var queries int
	for _, ev := range sink.Events() {
		if ev.Name == "query" {
			queries++
		}
	}
	if queries != 3 { // observations 1, 5, 9 of 10
		t.Fatalf("recorded %d query spans, want 3", queries)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	if tr.Emitted() != int64(len(sink.Events())) {
		t.Fatalf("emitted = %d, events = %d", tr.Emitted(), len(sink.Events()))
	}
}

func TestNilTracerAndSpans(t *testing.T) {
	var tr *Tracer
	tr.SampleEvery("query", 8)
	s := tr.Start(nil, "anything", Str("k", "v"))
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.SetAttrs(Int("n", 1))
	s.End()
	s.End()
	if s.ID() != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil accessors nonzero")
	}
}

func TestEndIdempotent(t *testing.T) {
	sink := &CollectorSink{}
	tr := NewTracer(sink)
	s := tr.Start(nil, "x")
	s.End()
	s.End()
	if len(sink.Events()) != 1 {
		t.Fatalf("double End emitted %d events", len(sink.Events()))
	}
}

func TestConcurrentSpans(t *testing.T) {
	sink := &CollectorSink{}
	tr := NewTracer(sink)
	tr.SampleEvery("query", 3)
	root := tr.Start(nil, "run")
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := tr.Start(root, "query", Int("i", int64(i)))
				s.SetAttrs(Bool("done", true))
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := tr.Emitted() + tr.Dropped(); got != workers*per+1 {
		t.Fatalf("emitted+dropped = %d, want %d", got, workers*per+1)
	}
	seen := make(map[uint64]bool)
	for _, ev := range sink.Events() {
		if seen[ev.Span] {
			t.Fatalf("duplicate span id %d", ev.Span)
		}
		seen[ev.Span] = true
	}
}

// TestJSONLGolden pins the journal wire format: one JSON object per
// line with stable keys, driven through the tracer's clock seam so the
// bytes are deterministic.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBufferedJSONLSink(&buf)
	tr := NewTracer(sink)
	tr.epoch = time.Unix(0, 0)
	tr.now = fakeClock(tr.epoch)

	run := tr.Start(nil, "run", Str("tool", "rsnbench"))
	circuit := tr.Start(run, "circuit", Str("benchmark", "BasicSCB"), Int("scan_ffs", 60))
	stage := tr.Start(circuit, "one-cycle", Int("roots", 2))
	q := tr.Start(stage, "query", Int("root_ff", 0))
	q.SetAttrs(Int("decisions", 47), Bool("functional", true))
	q.End()
	stage.SetAttrs(Int("sat_queries", 320))
	stage.End()
	circuit.End()
	run.SetAttrs(Float("elapsed_s", 0.25))
	run.End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal drifted from golden file (run with -update to accept):\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
