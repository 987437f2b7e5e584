package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/olog"
)

// syncBuffer is a mutex-guarded bytes.Buffer: log records are written
// from scheduler workers while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// jsonLines decodes every non-empty buffered log line as a JSON
// object.
func jsonLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(string(b.Bytes())), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, ln)
		}
		out = append(out, m)
	}
	return out
}

// doWithIdentity performs req with the given correlation headers.
func doWithIdentity(t *testing.T, method, url, body, reqID, traceparent string) (int, http.Header, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestRequestIdentityCorrelation is the end-to-end telemetry check: one
// submission carrying a fixed X-Request-ID and W3C traceparent must
// surface the same identifiers in (1) the response headers, (2) the
// job record, (3) the structured access log, (4) the span tree of the
// job run, and (5) the flight-recorder events — the whole point of the
// request-scoped telemetry layer.
func TestRequestIdentityCorrelation(t *testing.T) {
	const (
		reqID   = "req-correlation-e2e"
		traceID = "0af7651916cd43dd8448eb211c80319c"
		parent  = "00-" + traceID + "-b7ad6b7169203331-01"
	)
	logBuf := &syncBuffer{}
	lg := olog.New(olog.Options{Writer: logBuf, Format: "json"})
	collector := &obs.CollectorSink{}
	reg := obs.NewRegistry()
	srv, ts := testServer(t, Config{
		Registry: reg,
		Logger:   lg,
		Tracer:   obs.NewTracer(collector),
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		// The job context must carry the submitting request's identity
		// even though the HTTP handler has long returned.
		ri, ok := obs.ReqInfoFrom(ctx)
		if !ok || ri.RequestID != reqID || ri.Trace.TraceID != traceID {
			t.Errorf("job context identity = %+v ok=%v, want request %s trace %s", ri, ok, reqID, traceID)
		}
		return []byte(`{"stub":"ok"}`), nil
	})

	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":3}`
	code, hdr, data := doWithIdentity(t, "POST", ts.URL+"/v1/analyses", body, reqID, parent)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}

	// (1) Response headers echo the request ID and continue the trace
	// with a fresh span ID.
	if got := hdr.Get("X-Request-ID"); got != reqID {
		t.Fatalf("X-Request-ID echo = %q, want %q", got, reqID)
	}
	tp := hdr.Get("Traceparent")
	tc, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if tc.TraceID != traceID {
		t.Fatalf("response trace ID = %s, want %s", tc.TraceID, traceID)
	}
	if tc.SpanID == "b7ad6b7169203331" {
		t.Fatal("response span ID must be a child span, not the caller's")
	}

	// (2) The job record carries the identity.
	st := decodeStatus(t, data)
	if st.RequestID != reqID || st.TraceID != traceID {
		t.Fatalf("job identity = %q/%q, want %q/%q", st.RequestID, st.TraceID, reqID, traceID)
	}
	fin := pollDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job state = %s: %s", fin.State, fin.Error)
	}

	// (3) The access log has exactly one submit line with the identity.
	found := 0
	for _, m := range jsonLines(t, logBuf) {
		if m["msg"] != "access" || m["endpoint"] != "submit" {
			continue
		}
		found++
		if m["request_id"] != reqID || m["trace_id"] != traceID {
			t.Fatalf("access log identity = %v/%v, want %s/%s", m["request_id"], m["trace_id"], reqID, traceID)
		}
		for _, key := range []string{"method", "path", "status", "bytes", "dur_ms", "remote", "span_id"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("access log line lacks %q: %v", key, m)
			}
		}
	}
	if found != 1 {
		t.Fatalf("access log submit lines = %d, want 1", found)
	}

	// (4) The job span carries the identity attributes.
	jobSpans := 0
	for _, ev := range collector.Events() {
		if ev.Name != "job" {
			continue
		}
		jobSpans++
		if ev.Attrs["request_id"] != reqID || ev.Attrs["trace_id"] != traceID {
			t.Fatalf("job span attrs = %v, want request %s trace %s", ev.Attrs, reqID, traceID)
		}
	}
	if jobSpans != 1 {
		t.Fatalf("job spans = %d, want 1", jobSpans)
	}

	// (5) The flight recorder joins the same identifiers to the job.
	code, _, evData := getBody(t, ts.URL+"/debug/events?job="+st.ID)
	if code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d: %s", code, evData)
	}
	var evResp struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(evData, &evResp); err != nil {
		t.Fatalf("decode events: %v\n%s", err, evData)
	}
	names := map[string]bool{}
	for _, ev := range evResp.Events {
		names[ev.Cat+"/"+ev.Name] = true
		if ev.RequestID != reqID || ev.TraceID != traceID {
			t.Fatalf("flight event %s/%s identity = %q/%q, want %q/%q",
				ev.Cat, ev.Name, ev.RequestID, ev.TraceID, reqID, traceID)
		}
	}
	for _, want := range []string{"sched/enqueue", "job/start", "job/done"} {
		if !names[want] {
			t.Fatalf("flight recorder lacks %s; got %v", want, names)
		}
	}
	_ = srv
}

// TestRequestIdentityMinted checks the no-header path: the server mints
// a request ID and starts a fresh trace, and rejects unusable inbound
// request IDs instead of propagating garbage into logs.
func TestRequestIdentityMinted(t *testing.T) {
	_, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, hdr, _ := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if id := hdr.Get("X-Request-ID"); !strings.HasPrefix(id, "req-") || len(id) != len("req-")+16 {
		t.Fatalf("minted request ID %q", id)
	}
	if _, ok := obs.ParseTraceparent(hdr.Get("Traceparent")); !ok {
		t.Fatalf("minted traceparent %q does not parse", hdr.Get("Traceparent"))
	}

	// An unusable request ID (overlong) must be replaced, not echoed.
	overlong := strings.Repeat("x", 300)
	code, hdr, _ = doWithIdentity(t, "GET", ts.URL+"/healthz", "", overlong, "not-a-traceparent")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if id := hdr.Get("X-Request-ID"); strings.Contains(id, "xxx") {
		t.Fatalf("unsanitized request ID echoed: %q", id)
	}
	if _, ok := obs.ParseTraceparent(hdr.Get("Traceparent")); !ok {
		t.Fatalf("fallback traceparent %q does not parse", hdr.Get("Traceparent"))
	}
}

// TestAccessLogFlushOnShutdown is the flush audit: access-log records
// buffered in an olog.BufferedWriter must all reach the underlying
// writer once the server shut down and the buffer flushed — the
// rsnserved -log-file path. Run under -race this also audits the
// handler-goroutine/shutdown-goroutine handoff.
func TestAccessLogFlushOnShutdown(t *testing.T) {
	under := &syncBuffer{}
	bw := olog.NewBufferedWriter(under)
	lg := olog.New(olog.Options{Writer: bw, Format: "json"})
	srv, err := New(Config{Logger: lg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/healthz")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	access := 0
	for _, m := range jsonLines(t, under) {
		if m["msg"] == "access" {
			access++
		}
	}
	if access != n {
		t.Fatalf("flushed access lines = %d, want %d (dropped tail)", access, n)
	}
}

// eventsOf fetches /debug/events (with the given query) and decodes it.
func eventsOf(t *testing.T, url string) []flight.Event {
	t.Helper()
	code, _, data := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", url, code, data)
	}
	var resp struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decode events: %v\n%s", err, data)
	}
	return resp.Events
}

// TestFlightRingIgnoresLogLevel: with the journal switched off, the
// flight recorder still rings the job's lifecycle with the submitter's
// identity — the ring does not depend on the log level.
func TestFlightRingIgnoresLogLevel(t *testing.T) {
	const (
		reqID   = "req-quiet-ring"
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	)
	journal := &syncBuffer{}
	lg := olog.New(olog.Options{Writer: journal, Levels: olog.NewLevels(olog.LevelOff)})
	_, ts := testServer(t, Config{Logger: lg}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, _, data := doWithIdentity(t, "POST", ts.URL+"/v1/analyses",
		`{"benchmark":"TreeFlat","circuits":1,"specs":1}`, reqID, "00-"+traceID+"-00f067aa0ba902b7-01")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	id := decodeStatus(t, data).ID
	pollDone(t, ts.URL, id)

	want := map[string]bool{"sched/enqueue": false, "job/start": false, "job/done": false}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, ev := range eventsOf(t, ts.URL+"/debug/events?job="+id) {
			name := ev.Cat + "/" + ev.Name
			if _, ok := want[name]; !ok {
				continue
			}
			if ev.RequestID != reqID || ev.TraceID != traceID {
				t.Fatalf("%s identity = %q/%q, want %q/%q", name, ev.RequestID, ev.TraceID, reqID, traceID)
			}
			want[name] = true
		}
		if want["sched/enqueue"] && want["job/start"] && want["job/done"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring lacks lifecycle events under LevelOff: %v", want)
		}
		time.Sleep(5 * time.Millisecond) // job/done lands just after the state flips
	}
	if n := len(journal.Bytes()); n != 0 {
		t.Fatalf("journal at LevelOff wrote %d bytes", n)
	}
}

// TestEachEventLoggedOnce: over a submit, store-hit and cancel
// sequence, every ringed event has exactly one journal record with the
// same component, message and job, and the former duplicate log lines
// are gone.
func TestEachEventLoggedOnce(t *testing.T) {
	journal := &syncBuffer{}
	lg := olog.New(olog.Options{Writer: journal, Levels: olog.NewLevels(slog.LevelDebug)})
	started := make(chan struct{})
	srv, ts := testServer(t, Config{Logger: lg}, func(ctx context.Context, j *Job) ([]byte, error) {
		if j.Label == "BasicSCB" { // parks until canceled
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte(`{}`), nil
	})
	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1}`
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if code, _, data = postJSON(t, ts.URL+"/v1/analyses", body); code != http.StatusOK {
		t.Fatalf("store hit: HTTP %d: %s", code, data)
	}
	code, _, data = postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"BasicSCB","circuits":1,"specs":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	parked := decodeStatus(t, data).ID
	<-started // cancel a running job, so the worker records its end too
	if code, _, data = doWithIdentity(t, "DELETE", ts.URL+"/v1/analyses/"+parked, "", "", ""); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}
	pollDone(t, ts.URL, parked)
	// Drain so every worker-side record has landed in both sinks.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	type key struct{ cat, event, job string }
	ringed := map[string]bool{}
	inRing := map[key]int{}
	for _, ev := range eventsOf(t, ts.URL+"/debug/events") {
		ringed[ev.Cat] = true
		inRing[key{ev.Cat, ev.Name, ev.Job}]++
	}
	inJournal := map[key]int{}
	for _, m := range jsonLines(t, journal) {
		switch m["msg"] {
		case "served from store", "queued", "coalesced identical submission", "cancel requested":
			t.Errorf("duplicate log line survives: %v", m)
		}
		cat, _ := m["component"].(string)
		if !ringed[cat] {
			continue
		}
		job, _ := m["job"].(string)
		inJournal[key{cat, m["msg"].(string), job}]++
	}
	for _, want := range []key{{"sched", "enqueue", ""}, {"sched", "hit", ""}, {"sched", "cancel", parked},
		{"job", "canceled", parked}, {"store", "hit", ""}, {"store", "miss", ""}, {"store", "put", ""}} {
		found := false
		for k := range inRing {
			found = found || (k.cat == want.cat && k.event == want.event && (want.job == "" || k.job == want.job))
		}
		if !found {
			t.Errorf("ring lacks %s/%s (job %q): %v", want.cat, want.event, want.job, inRing)
		}
	}
	for k, n := range inRing {
		if inJournal[k] != n {
			t.Errorf("%s/%s job %q: %d ringed, %d journaled", k.cat, k.event, k.job, n, inJournal[k])
		}
	}
	for k, n := range inJournal {
		if inRing[k] != n {
			t.Errorf("%s/%s job %q: %d journaled, %d ringed", k.cat, k.event, k.job, n, inRing[k])
		}
	}
}
