package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testServer wires a Server to an httptest listener. When run is
// non-nil it replaces the engine-backed job body (still performing the
// store write, like the real execute does).
func testServer(t *testing.T, cfg Config, run func(ctx context.Context, j *Job) ([]byte, error)) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		srv.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
			data, err := run(ctx, j)
			if err == nil {
				if perr := srv.store.Put(j.Key, data); perr != nil {
					t.Errorf("store put: %v", perr)
				}
			}
			return data, err
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

func decodeStatus(t *testing.T, data []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decode status: %v\n%s", err, data)
	}
	return st
}

// pollDone polls the status endpoint until the job reaches a terminal
// state.
func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, data := getBody(t, base+"/v1/analyses/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d: %s", code, data)
		}
		st := decodeStatus(t, data)
		if st.State.Finished() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{}, func(context.Context, *Job) ([]byte, error) { return nil, nil })
	cases := []struct{ name, body string }{
		{"empty", `{}`},
		{"both inputs", `{"benchmark":"TreeFlat","icl":"x"}`},
		{"unknown benchmark", `{"benchmark":"NoSuch"}`},
		{"unknown mode", `{"benchmark":"TreeFlat","mode":"psychic"}`},
		{"circuits cap", `{"benchmark":"TreeFlat","circuits":999}`},
		{"specs cap", `{"benchmark":"TreeFlat","specs":999}`},
		{"ff cap", `{"benchmark":"TreeFlat","target_scan_ffs":99999}`},
		{"scale range", `{"benchmark":"TreeFlat","scale":2.5}`},
		{"unknown field", `{"benchmark":"TreeFlat","frobnicate":1}`},
		{"bad json", `{`},
		{"icl without spec", `{"icl":"ScanNetwork \"x\" { ScanRegister \"A\" { Length 1; ScanInSource SI; } ScanOutSource Register \"A\"; }"}`},
	}
	for _, c := range cases {
		code, _, data := postJSON(t, ts.URL+"/v1/analyses", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (want 400): %s", c.name, code, data)
		}
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", c.name, data)
		}
	}
}

func TestUnknownJobEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{}, func(context.Context, *Job) ([]byte, error) { return nil, nil })
	for _, ep := range []string{"/v1/analyses/nope", "/v1/analyses/nope/report"} {
		if code, _, _ := getBody(t, ts.URL+ep); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", ep, code)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/analyses/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestServerCoalescingAndCacheHit(t *testing.T) {
	release := make(chan struct{})
	reg := obs.NewRegistry()
	srv, ts := testServer(t, Config{Registry: reg}, func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte(`{"stub":"` + j.Key[:8] + `"}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":7}`

	code1, _, data1 := postJSON(t, ts.URL+"/v1/analyses", body)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", code1, data1)
	}
	st1 := decodeStatus(t, data1)
	if st1.Cache != "miss" {
		t.Fatalf("first submit cache = %q, want miss", st1.Cache)
	}

	// An identical submission while the first is in flight coalesces:
	// same job, no second engine run.
	code2, _, data2 := postJSON(t, ts.URL+"/v1/analyses", body)
	if code2 != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d: %s", code2, data2)
	}
	st2 := decodeStatus(t, data2)
	if st2.ID != st1.ID {
		t.Fatalf("coalesced submission got its own job: %s vs %s", st2.ID, st1.ID)
	}
	if st2.Cache != "coalesced" {
		t.Fatalf("coalesced cache = %q", st2.Cache)
	}

	close(release)
	pollDone(t, ts.URL, st1.ID)
	if v := reg.Counter("serve_jobs_executed_total").Value(); v != 1 {
		t.Fatalf("executed jobs = %d for 2 identical submissions", v)
	}
	if v := reg.Counter("serve_jobs_coalesced_total").Value(); v != 1 {
		t.Fatalf("coalesced counter = %d", v)
	}

	// A third submission after completion is a store hit: HTTP 200, a
	// finished record, the identical document.
	code3, _, data3 := postJSON(t, ts.URL+"/v1/analyses", body)
	if code3 != http.StatusOK {
		t.Fatalf("cached submit: HTTP %d: %s", code3, data3)
	}
	st3 := decodeStatus(t, data3)
	if st3.Cache != "hit" || st3.State != StateDone {
		t.Fatalf("cached submit: %+v", st3)
	}
	if st3.ID == st1.ID {
		t.Fatal("store hit must mint its own job record")
	}
	_, h1, rep1 := getBody(t, ts.URL+"/v1/analyses/"+st1.ID+"/report")
	_, h3, rep3 := getBody(t, ts.URL+"/v1/analyses/"+st3.ID+"/report")
	if !bytes.Equal(rep1, rep3) {
		t.Fatalf("cached report differs:\n%s\nvs\n%s", rep1, rep3)
	}
	if h1.Get("X-Cache") != "miss" || h3.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache headers: %q, %q", h1.Get("X-Cache"), h3.Get("X-Cache"))
	}
	if v := reg.Counter("serve_store_hits_total").Value(); v != 1 {
		t.Fatalf("store hits = %d, want 1", v)
	}
	_ = srv
}

func TestServerQueueFull429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 8)
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte("{}"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	submit := func(seed int) (int, http.Header) {
		code, h, _ := postJSON(t, ts.URL+"/v1/analyses",
			fmt.Sprintf(`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":%d}`, seed))
		return code, h
	}
	if code, _ := submit(1); code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", code)
	}
	<-started // worker occupied; the next submission queues
	if code, _ := submit(2); code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", code)
	}
	code, h := submit(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", code)
	}
	if h.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestServerCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 8)
	_, ts := testServer(t, Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done() // honor cancellation like the engine does
		return nil, ctx.Err()
	})
	_, _, data := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1}`)
	st := decodeStatus(t, data)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/analyses/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	final := pollDone(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	// The report of a canceled job is gone, not pending.
	if code, _, _ := getBody(t, ts.URL+"/v1/analyses/"+st.ID+"/report"); code != http.StatusGone {
		t.Fatalf("canceled report: HTTP %d, want 410", code)
	}

	// The freed worker accepts new work.
	_, _, data = postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":99}`)
	st2 := decodeStatus(t, data)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the next job after cancel")
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/analyses/"+st2.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func TestServerShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv, ts := testServer(t, Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`{"drained":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, _, data := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1}`)
	st := decodeStatus(t, data)
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Once draining: readiness fails and submissions are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _, _ := getBody(t, ts.URL+"/readyz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":5}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}

	// The in-flight job finishes — the drain loses no accepted work.
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if jst, err := srv.sched.Status(st.ID); err != nil || jst.State != StateDone {
		t.Fatalf("accepted job after shutdown: %+v err=%v", jst, err)
	}
	if data, _, err := srv.sched.Result(st.ID); err != nil || !strings.Contains(string(data), "drained") {
		t.Fatalf("drained job lost its result: %q err=%v", data, err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{}, func(context.Context, *Job) ([]byte, error) {
		return []byte("{}"), nil
	})
	_, _, data := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1}`)
	pollDone(t, ts.URL, decodeStatus(t, data).ID)
	code, _, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"serve_queue_depth",
		"serve_jobs_running",
		"serve_store_hits_total",
		"serve_store_misses_total",
		`serve_request_seconds_bucket{endpoint="submit"`,
		`serve_requests_total{endpoint="submit",code="202"}`,
		`serve_requests_total{endpoint="status",code="200"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{}, func(context.Context, *Job) ([]byte, error) { return nil, nil })
	if code, _, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
}

// sumEngineCalls totals the engine_stage_calls_total series — the
// live proof of how many engine stage executions happened.
func sumEngineCalls(reg *obs.Registry) int64 {
	var total int64
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "engine_stage_calls_total") {
			if n, ok := v.(int64); ok {
				total += n
			}
		}
	}
	return total
}

// TestE2EDoubleSubmissionRealEngine is the acceptance criterion of the
// serving subsystem run against the real engine: two identical
// submissions cost one engine run and yield byte-identical
// schema-valid reports, with the second answered from the
// content-addressed store (zero engine_stage_*_total delta).
func TestE2EDoubleSubmissionRealEngine(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Registry: reg}, nil)
	body := `{"benchmark":"TreeFlat","circuits":1,"specs":2,"target_scan_ffs":60,"seed":3}`

	code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if st.State != StateDone {
		t.Fatalf("first run: %+v", st)
	}
	_, _, rep1 := getBody(t, ts.URL+st.ReportURL)
	report, err := obs.ReadDoc[obs.RunReport](bytes.NewReader(rep1))
	if err != nil {
		t.Fatalf("report schema: %v\n%s", err, rep1)
	}
	if report.Tool != "rsnserved" || len(report.Benchmarks) != 1 {
		t.Fatalf("report shape: tool=%q benchmarks=%d", report.Tool, len(report.Benchmarks))
	}
	if report.Benchmarks[0].Name != "TreeFlat" {
		t.Fatalf("report benchmark = %q", report.Benchmarks[0].Name)
	}

	callsAfterFirst := sumEngineCalls(reg)
	if callsAfterFirst == 0 {
		t.Fatal("engine stage counters must register on the server registry")
	}

	code, _, data = postJSON(t, ts.URL+"/v1/analyses", body)
	if code != http.StatusOK {
		t.Fatalf("second submit: HTTP %d: %s", code, data)
	}
	st2 := decodeStatus(t, data)
	if st2.Cache != "hit" {
		t.Fatalf("second submit cache = %q", st2.Cache)
	}
	_, _, rep2 := getBody(t, ts.URL+st2.ReportURL)
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("reports differ between identical submissions:\n%s\nvs\n%s", rep1, rep2)
	}
	if delta := sumEngineCalls(reg) - callsAfterFirst; delta != 0 {
		t.Fatalf("cached submission cost %d engine stage calls", delta)
	}

	// A different seed is a different content address: fresh run.
	code, _, _ = postJSON(t, ts.URL+"/v1/analyses",
		`{"benchmark":"TreeFlat","circuits":1,"specs":2,"target_scan_ffs":60,"seed":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("different-seed submit: HTTP %d, want 202", code)
	}
}

const serveICLSample = `
ScanNetwork "annotated" {
  Categories 4;
  Module "crypto" { Trust 3; Accepts 2, 3; }
  Module "untrusted" { Trust 0; Accepts 0, 1, 2, 3; }
  Module "plain" { Trust 1; Accepts 0, 1, 2, 3; }
  ScanRegister "A" { Length 2; ScanInSource SI; Module "crypto"; }
  ScanRegister "B" { Length 1; ScanInSource Register "A"; Module "untrusted"; }
  ScanRegister "C" { Length 1; ScanInSource Register "B"; Module "plain"; }
  ScanOutSource Register "C";
}
`

func TestICLSubmissionRealEngine(t *testing.T) {
	_, ts := testServer(t, Config{}, nil)
	body, _ := json.Marshal(AnalysisRequest{ICL: serveICLSample})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("icl submit: HTTP %d: %s", code, data)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if st.State != StateDone {
		t.Fatalf("icl run: %+v", st)
	}
	if st.Label != "annotated" {
		t.Fatalf("label = %q, want the network name", st.Label)
	}
	_, _, rep := getBody(t, ts.URL+st.ReportURL)
	report, err := obs.ReadDoc[obs.RunReport](bytes.NewReader(rep))
	if err != nil {
		t.Fatalf("icl report schema: %v\n%s", err, rep)
	}
	b := report.Benchmarks[0]
	if b.Family != "inline" || b.Name != "annotated" {
		t.Fatalf("icl report row: %+v", b)
	}
	if b.Runs+b.SkippedInsecureLogic != 1 {
		t.Fatalf("icl report must account for exactly one run: %+v", b)
	}
}

// TestICLJobTraceShape checks that a served ICL job journals the
// offline trace shape: the dependency stages nest under the job's
// "secure" span, which nests under the job span.
func TestICLJobTraceShape(t *testing.T) {
	sink := &obs.CollectorSink{}
	_, ts := testServer(t, Config{Tracer: obs.NewTracer(sink)}, nil)
	body, _ := json.Marshal(AnalysisRequest{ICL: serveICLSample})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("icl submit: HTTP %d: %s", code, data)
	}
	if st := pollDone(t, ts.URL, decodeStatus(t, data).ID); st.State != StateDone {
		t.Fatalf("icl run: %+v", st)
	}
	names := map[uint64]string{}
	parents := map[uint64]uint64{}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		for _, ev := range sink.Events() {
			names[ev.Span], parents[ev.Span] = ev.Name, ev.Parent
		}
		done := false
		for _, n := range names {
			done = done || n == "job"
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job span never ended")
		}
	}
	stages := 0
	for id, n := range names {
		switch n {
		case "one-cycle", "bridge", "closure":
			stages++
			sec := parents[id]
			if names[sec] != "secure" || names[parents[sec]] != "job" {
				t.Fatalf("stage %q nests under %q under %q, want secure under job",
					n, names[sec], names[parents[sec]])
			}
		}
	}
	if stages != 3 {
		t.Fatalf("%d dependency stage spans, want 3", stages)
	}
}

// serveICLLinked carries instrument links but no circuit: the server
// synthesizes hold flip-flops for the referenced names (like
// rsnsec -icl without -bench).
const serveICLLinked = `
ScanNetwork "linked" {
  Categories 4;
  Module "crypto" { Trust 3; Accepts 2, 3; }
  Module "untrusted" { Trust 0; Accepts 0, 1, 2, 3; }
  ScanRegister "A" {
    Length 2;
    ScanInSource SI;
    Module "crypto";
    CaptureSource 0 "crypto.F0";
    CaptureSource 1 "crypto.F1";
  }
  ScanRegister "B" {
    Length 3;
    ScanInSource Register "A";
    Module "untrusted";
    UpdateSink 2 "untrusted.F0";
  }
  ScanOutSource Register "B";
}
`

func TestICLLinkedWithoutCircuit(t *testing.T) {
	_, ts := testServer(t, Config{}, nil)
	body, _ := json.Marshal(AnalysisRequest{ICL: serveICLLinked})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("linked icl submit: HTTP %d: %s", code, data)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if st.State != StateDone {
		t.Fatalf("linked icl run: %+v", st)
	}
	_, _, rep := getBody(t, ts.URL+st.ReportURL)
	if _, err := obs.ReadDoc[obs.RunReport](bytes.NewReader(rep)); err != nil {
		t.Fatalf("linked icl report schema: %v\n%s", err, rep)
	}
}

func TestRequestKeyStability(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	key := func(req AnalysisRequest) string {
		t.Helper()
		a, err := srv.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		return a.key
	}
	base := AnalysisRequest{Benchmark: "TreeFlat", Circuits: 1, Specs: 2, TargetScanFFs: 60, Seed: 3}
	if key(base) != key(base) {
		t.Fatal("identical requests must share a content address")
	}
	// Explicit values equal to the defaults hash identically to the
	// defaulted form.
	defaulted := AnalysisRequest{Benchmark: "TreeFlat", Circuits: 1, Specs: 2, TargetScanFFs: 60, Seed: 3, Mode: "exact"}
	if key(base) != key(defaulted) {
		t.Fatal("explicit default mode must not change the content address")
	}
	for name, alt := range map[string]AnalysisRequest{
		"seed":     {Benchmark: "TreeFlat", Circuits: 1, Specs: 2, TargetScanFFs: 60, Seed: 4},
		"specs":    {Benchmark: "TreeFlat", Circuits: 1, Specs: 3, TargetScanFFs: 60, Seed: 3},
		"ffbudget": {Benchmark: "TreeFlat", Circuits: 1, Specs: 2, TargetScanFFs: 80, Seed: 3},
		"mode":     {Benchmark: "TreeFlat", Circuits: 1, Specs: 2, TargetScanFFs: 60, Seed: 3, Mode: "structural"},
		"bench":    {Benchmark: "BasicSCB", Circuits: 1, Specs: 2, TargetScanFFs: 60, Seed: 3},
	} {
		if key(base) == key(alt) {
			t.Errorf("changing %s must change the content address", name)
		}
	}
	// Priority and timeout are delivery parameters, not analysis
	// inputs: they share the cache slot.
	pri := base
	pri.Priority = 9
	pri.TimeoutMS = 1234
	if key(base) != key(pri) {
		t.Fatal("priority/timeout must not change the content address")
	}
}

// TestEventsSinceCursorThroughServer exercises the flight recorder's
// incremental tail through the daemon endpoint.
func TestEventsSinceCursorThroughServer(t *testing.T) {
	_, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	pollDone(t, ts.URL, decodeStatus(t, data).ID)

	var resp struct {
		LastSeq uint64            `json:"last_seq"`
		Events  []json.RawMessage `json:"events"`
	}
	code, _, data = getBody(t, ts.URL+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: %d", code)
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.LastSeq == 0 || len(resp.Events) == 0 {
		t.Fatalf("baseline events = %+v", resp)
	}

	// Nothing new after the cursor...
	code, _, data = getBody(t, fmt.Sprintf("%s/debug/events?since=%d", ts.URL, resp.LastSeq))
	if code != http.StatusOK {
		t.Fatalf("tail: %d", code)
	}
	cursor := resp.LastSeq
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 0 {
		t.Fatalf("tail from tip returned %d events", len(resp.Events))
	}

	// ...until more work happens.
	code, _, data = postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":9}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	pollDone(t, ts.URL, decodeStatus(t, data).ID)
	code, _, data = getBody(t, fmt.Sprintf("%s/debug/events?since=%d", ts.URL, cursor))
	if code != http.StatusOK {
		t.Fatalf("tail 2: %d", code)
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) == 0 || resp.LastSeq <= cursor {
		t.Fatalf("tail after new work: %d events, last_seq %d (cursor %d)", len(resp.Events), resp.LastSeq, cursor)
	}
}

// TestReportsIdenticalAcrossRepeatRuns is the determinism acceptance
// check: a real engine-backed analysis must produce byte-identical
// report documents on a repeated identical submission, and a fresh
// recomputation on a second server must match on every content field
// (reports embed wall times — started_at, stage wall_ns, avg_*_ns —
// which are the only fields allowed to differ).
func TestReportsIdenticalAcrossRepeatRuns(t *testing.T) {
	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1}`
	runOnce := func() []byte {
		_, ts := testServer(t, Config{}, nil) // nil run = the real engine path

		code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, data)
		}
		id := decodeStatus(t, data).ID
		pollDone(t, ts.URL, id)
		code, _, rep := getBody(t, ts.URL+"/v1/analyses/"+id+"/report")
		if code != http.StatusOK {
			t.Fatalf("report: %d %s", code, rep)
		}

		// Same server, identical submission: served from the store,
		// byte-identical by construction.
		code, _, data = postJSON(t, ts.URL+"/v1/analyses", body)
		if code != http.StatusOK {
			t.Fatalf("resubmit: %d %s", code, data)
		}
		id2 := decodeStatus(t, data).ID
		code, _, rep2 := getBody(t, ts.URL+"/v1/analyses/"+id2+"/report")
		if code != http.StatusOK || !bytes.Equal(rep, rep2) {
			t.Fatalf("cache-hit report differs (%d bytes vs %d)", len(rep), len(rep2))
		}
		return rep
	}
	a := runOnce()
	b := runOnce() // fresh server: full recomputation
	if na, nb := stripWallTimes(t, a), stripWallTimes(t, b); !bytes.Equal(na, nb) {
		t.Fatalf("recomputed report content differs across servers:\n%s\nvs\n%s", na, nb)
	}
}

// stripWallTimes zeroes a report's timing fields so content can be
// compared across independent recomputations.
func stripWallTimes(t *testing.T, data []byte) []byte {
	t.Helper()
	rep, err := obs.ReadDoc[obs.RunReport](bytes.NewReader(data))
	if err != nil {
		t.Fatalf("report invalid: %v\n%s", err, data)
	}
	rep.StartedAt = ""
	for i := range rep.Stages {
		rep.Stages[i].WallNS = 0
	}
	rep.Totals.StageWallNS = 0
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		b.AvgDepNS, b.AvgPureNS, b.AvgHybridNS, b.AvgTotalNS = 0, 0, 0, 0
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
