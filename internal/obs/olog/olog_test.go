package olog

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func jsonLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

func TestJSONRecordsCarryComponentAndLevel(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Writer: &buf})
	Component(lg, "serve").Info("listening", "addr", "localhost:1")
	recs := jsonLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r["component"] != "serve" || r["msg"] != "listening" || r["addr"] != "localhost:1" || r["level"] != "INFO" {
		t.Errorf("record = %v", r)
	}
	if r["time"] == nil {
		t.Errorf("record missing time: %v", r)
	}
}

func TestPerComponentLevelControl(t *testing.T) {
	var buf bytes.Buffer
	levels, err := ParseSpec("warn,engine=debug,store=off")
	if err != nil {
		t.Fatal(err)
	}
	lg := New(Options{Writer: &buf, Levels: levels})

	Component(lg, "engine").Debug("closure pass", "items", 12) // admitted: engine=debug
	Component(lg, "serve").Info("suppressed")                  // below default warn
	Component(lg, "serve").Warn("admitted")
	Component(lg, "store").Error("never") // off silences even errors

	recs := jsonLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2:\n%s", len(recs), buf.String())
	}
	if recs[0]["component"] != "engine" || recs[1]["msg"] != "admitted" {
		t.Errorf("records = %v", recs)
	}

	// Levels adjust at runtime without rebuilding the logger.
	levels.Set("serve", slog.LevelDebug)
	buf.Reset()
	Component(lg, "serve").Debug("now visible")
	if len(jsonLines(t, &buf)) != 1 {
		t.Errorf("runtime level change had no effect:\n%s", buf.String())
	}
}

func TestHandlerStampsRequestIdentityFromContext(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Writer: &buf})
	tc, _ := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	ctx := obs.WithReqInfo(context.Background(), obs.ReqInfo{RequestID: "req-42", Trace: tc})
	lg.InfoContext(ctx, "access", "status", 200)
	r := jsonLines(t, &buf)[0]
	if r["request_id"] != "req-42" {
		t.Errorf("request_id = %v", r["request_id"])
	}
	if r["trace_id"] != "4bf92f3577b34da6a3ce929d0e0e4736" || r["span_id"] != "00f067aa0ba902b7" {
		t.Errorf("trace identity = %v / %v", r["trace_id"], r["span_id"])
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, spec := range []string{"verbose", "engine=chatty", "=debug", "info,warn"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	l, err := ParseSpec("info,engine=debug")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "info,engine=debug" {
		t.Errorf("String() = %q", got)
	}
}

func TestTextFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Writer: &buf, Format: "text"})
	lg.Info("hello", "k", "v")
	if line := buf.String(); !strings.Contains(line, "msg=hello") || !strings.Contains(line, "k=v") {
		t.Errorf("text record = %q", line)
	}
}

func TestBufferedWriterConcurrentFlush(t *testing.T) {
	var sink bytes.Buffer
	bw := NewBufferedWriter(&sink)
	lg := New(Options{Writer: bw})
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lg.Info("line", "i", i)
		}(i)
	}
	wg.Wait()
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(jsonLines(t, &sink)); got != n {
		t.Errorf("flushed %d records, want %d", got, n)
	}
}
