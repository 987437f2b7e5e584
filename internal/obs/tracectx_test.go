package obs

import (
	"context"
	"strings"
	"testing"
)

const (
	validTraceparent  = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	futureTraceparent = "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"
)

var malformedTraceparents = []string{
	"",
	"00-short-00f067aa0ba902b7-01",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 must be exactly 4 fields
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // all-zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // all-zero span id
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // forbidden version
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase hex
	"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
}

func TestParseTraceparentRoundTrip(t *testing.T) {
	const h = validTraceparent
	tc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a valid header", h)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %q", tc.TraceID)
	}
	if tc.SpanID != "00f067aa0ba902b7" {
		t.Errorf("span id = %q", tc.SpanID)
	}
	if tc.Flags != 0x01 {
		t.Errorf("flags = %#02x", tc.Flags)
	}
	if got := tc.Traceparent(); got != h {
		t.Errorf("round trip = %q, want %q", got, h)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
}

func TestParseTraceparentFutureVersionWithSuffix(t *testing.T) {
	// A future version may append fields after the flags; the 00-shaped
	// prefix must still parse.
	tc, ok := ParseTraceparent(futureTraceparent)
	if !ok || tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("future-version header rejected: ok=%v tc=%+v", ok, tc)
	}
}

// FuzzParseTraceparent feeds raw header values to the parser: it must
// never panic, and an accepted header must yield a valid context whose
// Traceparent() parses back to the same context — and, for a version-00
// header, renders the header itself.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(validTraceparent)
	f.Add(futureTraceparent)
	f.Add(" " + validTraceparent + "\t")
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, tc)
		}
		out := tc.Traceparent()
		back, ok := ParseTraceparent(out)
		if !ok || back != tc {
			t.Fatalf("round trip of %q: %q parsed to %+v (ok=%v), want %+v", h, out, back, ok, tc)
		}
		if trimmed := strings.TrimSpace(h); strings.HasPrefix(trimmed, "00-") && out != trimmed {
			t.Fatalf("version-00 header %q rendered as %q", trimmed, out)
		}
	})
}

func TestChildKeepsTraceID(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("NewTraceContext invalid: %+v", tc)
	}
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Errorf("child changed trace id: %q -> %q", tc.TraceID, child.TraceID)
	}
	if child.SpanID == tc.SpanID {
		t.Errorf("child kept the parent span id %q", tc.SpanID)
	}
	if !child.Valid() {
		t.Errorf("child invalid: %+v", child)
	}
}

func TestNewRequestIDShape(t *testing.T) {
	id := NewRequestID()
	if !strings.HasPrefix(id, "req-") || len(id) != 4+16 {
		t.Errorf("request id %q has unexpected shape", id)
	}
	if id == NewRequestID() {
		t.Errorf("two request ids collided")
	}
}

func TestReqInfoContextRoundTrip(t *testing.T) {
	if _, ok := ReqInfoFrom(context.Background()); ok {
		t.Fatal("empty context reported a request identity")
	}
	ri := ReqInfo{RequestID: "req-1", Trace: NewTraceContext()}
	ctx := WithReqInfo(context.Background(), ri)
	got, ok := ReqInfoFrom(ctx)
	if !ok || got != ri {
		t.Fatalf("ReqInfoFrom = %+v, %v; want %+v", got, ok, ri)
	}
	attrs := ri.Attrs()
	if len(attrs) != 2 || attrs[0].Key != "request_id" || attrs[1].Key != "trace_id" {
		t.Errorf("Attrs = %+v", attrs)
	}
}

func TestRuntimeMetricsCollect(t *testing.T) {
	reg := NewRegistry()
	EnableRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"go_goroutines", "go_heap_live_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}
	if reg.Gauge("go_goroutines").Value() < 1 {
		t.Errorf("go_goroutines = %d, want >= 1", reg.Gauge("go_goroutines").Value())
	}
	if reg.Gauge("go_heap_live_bytes").Value() <= 0 {
		t.Errorf("go_heap_live_bytes = %d, want > 0", reg.Gauge("go_heap_live_bytes").Value())
	}
}

func TestRegistryCollectorRefreshesOnSnapshot(t *testing.T) {
	reg := NewRegistry()
	n := 0
	reg.AddCollector(func() { n++; reg.Gauge("ticks").Set(int64(n)) })
	_ = reg.Snapshot()
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if n != 2 {
		t.Fatalf("collector ran %d times, want 2", n)
	}
	if got := reg.Gauge("ticks").Value(); got != 2 {
		t.Fatalf("ticks = %d, want 2", got)
	}
}
