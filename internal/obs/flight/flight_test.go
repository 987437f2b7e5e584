package flight

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/olog"
)

func TestRingWrapKeepsLatest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Cat: "sched", Name: "enqueue", Detail: string(rune('a' + i))})
	}
	evs := r.Snapshot("sched")
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Detail != "g" || evs[3].Detail != "j" {
		t.Errorf("retained window = %q..%q, want g..j", evs[0].Detail, evs[3].Detail)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
}

func TestCategoriesIsolateAndMerge(t *testing.T) {
	r := New(2)
	r.Record(Event{Cat: "job", Name: "start", Job: "a1"})
	r.Record(Event{Cat: "store", Name: "miss"})
	r.Record(Event{Cat: "job", Name: "done", Job: "a1"})
	// The store ring must not have been evicted by job traffic.
	if got := r.Snapshot("store"); len(got) != 1 || got[0].Name != "miss" {
		t.Errorf("store ring = %+v", got)
	}
	all := r.Snapshot("")
	if len(all) != 3 || all[0].Name != "start" || all[1].Name != "miss" || all[2].Name != "done" {
		t.Errorf("merged order = %+v", all)
	}
	if cats := r.Categories(); len(cats) != 2 || cats[0] != "job" || cats[1] != "store" {
		t.Errorf("categories = %v", cats)
	}
	if got := onlyJob(r.Snapshot(""), "a1"); len(got) != 2 {
		t.Errorf("job a1 events = %+v", got)
	}
	if got := r.Snapshot(""); len(got) < 2 || got[len(got)-1].Name != "done" {
		t.Errorf("latest = %+v", got)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Record(Event{Cat: "job", Name: "x"})
	if r.Snapshot("") != nil || r.Categories() != nil || r.Dropped() != 0 {
		t.Error("nil recorder leaked state")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cat := []string{"job", "sched", "store"}[g%3]
			for i := 0; i < 100; i++ {
				r.Record(Event{Cat: cat, Name: "ev"})
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range r.Categories() {
		total += len(r.Snapshot(c))
	}
	if total == 0 || total > 3*64 {
		t.Errorf("retained %d events", total)
	}
}

func TestHandlerJSON(t *testing.T) {
	r := New(8)
	ri := obs.ReqInfo{RequestID: "req-7", Trace: obs.NewTraceContext()}
	r.Record(Event{Cat: "job", Name: "enqueue", Job: "a1", RequestID: ri.RequestID, TraceID: ri.Trace.TraceID})
	r.Record(Event{Cat: "sched", Name: "reject"})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var resp struct {
		Categories []string `json:"categories"`
		Events     []Event  `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(resp.Events) != 2 || resp.Events[0].RequestID != "req-7" || resp.Events[0].TraceID != ri.Trace.TraceID {
		t.Errorf("events = %+v", resp.Events)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?cat=sched&n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Events[0].Name != "reject" {
		t.Errorf("filtered events = %+v", resp.Events)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?n=bogus", nil))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("bad n: code=%d body=%s", rec.Code, rec.Body.String())
	}
}

func TestSnapshotSinceCursor(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Cat: "job", Name: "tick"})
	}
	all := r.Snapshot("")
	if len(all) != 5 || r.LastSeq() != all[4].Seq {
		t.Fatalf("snapshot = %d events, last seq %d", len(all), r.LastSeq())
	}
	mid := all[2].Seq
	tail := r.SnapshotSince("", mid)
	if len(tail) != 2 || tail[0].Seq != all[3].Seq {
		t.Fatalf("since %d = %+v", mid, tail)
	}
	// Cursor at the tip: nothing new.
	if got := r.SnapshotSince("job", r.LastSeq()); len(got) != 0 {
		t.Fatalf("since tip = %+v", got)
	}
	// Cursor older than everything retained: full ring.
	if got := r.SnapshotSince("", 0); len(got) != 5 {
		t.Fatalf("since 0 = %d events", len(got))
	}
	var nilR *Recorder
	if nilR.LastSeq() != 0 || nilR.SnapshotSince("", 0) != nil {
		t.Fatal("nil recorder must no-op")
	}
}

func TestHandlerSinceParam(t *testing.T) {
	r := New(8)
	r.Record(Event{Cat: "job", Name: "first", Job: "a1"})
	r.Record(Event{Cat: "job", Name: "second", Job: "a1"})

	var resp struct {
		LastSeq uint64  `json:"last_seq"`
		Events  []Event `json:"events"`
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.LastSeq == 0 || len(resp.Events) != 2 {
		t.Fatalf("baseline = %+v", resp)
	}

	// Tail from the advertised cursor: only what happened after.
	cursor := resp.LastSeq
	r.Record(Event{Cat: "sched", Name: "third", Job: "a1"})
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		fmt.Sprintf("/debug/events?since=%d", cursor), nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Events[0].Name != "third" {
		t.Fatalf("tailed events = %+v", resp.Events)
	}
	if resp.LastSeq != cursor+1 {
		t.Fatalf("last_seq = %d, want %d", resp.LastSeq, cursor+1)
	}

	// since composes with the job filter.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		fmt.Sprintf("/debug/events?job=a1&since=%d", cursor), nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Events[0].Name != "third" {
		t.Fatalf("job-filtered tail = %+v", resp.Events)
	}

	// A malformed cursor is a 400.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?since=-3", nil))
	if rec.Code != 400 {
		t.Fatalf("bad since: code=%d", rec.Code)
	}
}

// TestWrapRingsEveryLevel: the wrapped handler rings records the
// journal's level drops, forwards the rest once, and maps component,
// message, job and context identity onto the event fields.
func TestWrapRingsEveryLevel(t *testing.T) {
	r := New(8)
	var journal bytes.Buffer
	base := olog.New(olog.Options{Writer: &journal, Levels: olog.NewLevels(slog.LevelInfo)})
	lg := olog.Component(slog.New(r.Wrap(base.Handler())), "sched")
	ri := obs.ReqInfo{RequestID: "req-9", Trace: obs.NewTraceContext()}
	ctx := obs.WithReqInfo(context.Background(), ri)

	lg.LogAttrs(ctx, slog.LevelInfo, "enqueue", slog.String("job", "a1"), slog.String("label", "TreeFlat"))
	lg.Debug("reject", "key", "abc", slog.Group("q", "depth", 3))

	evs := r.Snapshot("sched")
	if len(evs) != 2 {
		t.Fatalf("ringed %d events, want 2: %+v", len(evs), evs)
	}
	if ev := evs[0]; ev.Name != "enqueue" || ev.Job != "a1" || ev.Detail != "label=TreeFlat" ||
		ev.RequestID != "req-9" || ev.TraceID != ri.Trace.TraceID {
		t.Errorf("enqueue event = %+v", ev)
	}
	if ev := evs[1]; ev.Name != "reject" || ev.Job != "" || ev.Detail != "key=abc q=[depth=3]" || ev.RequestID != "" {
		t.Errorf("reject event = %+v", ev)
	}
	lines := strings.Split(strings.TrimSpace(journal.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"msg":"enqueue"`) || !strings.Contains(lines[0], `"component":"sched"`) {
		t.Errorf("journal = %q, want the info record alone", journal.String())
	}

	// A record without a component has no category and is not ringed.
	slog.New(r.Wrap(base.Handler())).Info("bare")
	if n := len(r.Snapshot("")); n != 2 {
		t.Errorf("uncategorized record ringed: %d events", n)
	}
	var nilR *Recorder
	if h := base.Handler(); nilR.Wrap(h) != h {
		t.Error("nil recorder must return next unchanged")
	}
}
