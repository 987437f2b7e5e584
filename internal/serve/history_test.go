package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/obs/slo"
)

// testSLOConfig exercises all three objective kinds against metric
// families the server actually exports.
func testSLOConfig() *slo.Config {
	return &slo.Config{
		Schema: slo.ConfigSchema,
		Objectives: []slo.Objective{
			{Name: "request-latency", Type: slo.TypeLatency, Metric: "serve_request_seconds",
				ThresholdSeconds: 1, Target: 0.9, FastWindowMS: 5_000, SlowWindowMS: 30_000, BurnThreshold: 2},
			{Name: "job-errors", Type: slo.TypeErrorRate,
				GoodMetric: "serve_jobs_done_total", BadMetric: "serve_jobs_failed_total",
				Target: 0.9, FastWindowMS: 5_000, SlowWindowMS: 30_000, BurnThreshold: 2},
			{Name: "queue-saturation", Type: slo.TypeSaturation, Metric: "serve_queue_depth",
				Limit: 32, Target: 0.5, FastWindowMS: 5_000, SlowWindowMS: 30_000},
		},
	}
}

// TestHistoryAndSLOEndpoints drives the full observability read path:
// jobs run, the sampler ticks, /debug/metrics/history answers
// schema-valid windowed documents, /v1/slo answers a schema-valid
// status, and the slo_* gauges appear in /metrics.
func TestHistoryAndSLOEndpoints(t *testing.T) {
	srv, ts := testServer(t, Config{
		Workers: 2,
		// testServer never calls Start, so the background sampler stays
		// quiet; the test ticks manually for determinism.
		History: &series.Config{Interval: 50 * time.Millisecond, Retention: time.Minute},
		SLO:     testSLOConfig(),
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{"stub":"done"}`), nil
	})

	// Baseline sample before any traffic, stamped safely in the past
	// (the store orders by the logical timestamps the ticks carry, the
	// handler queries relative to the wall clock).
	srv.History().Sample(time.Now().Add(-10 * time.Second))

	// Run a few jobs so request and job counters move.
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":%d}`, seed)
		code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", code, data)
		}
		pollDone(t, ts.URL, decodeStatus(t, data).ID)
	}
	// Post-traffic ticks a couple of seconds back from the wall clock,
	// so they land inside fully-closed step windows no matter how the
	// query's end aligns.
	srv.History().Sample(time.Now().Add(-2 * time.Second))
	srv.History().Sample(time.Now().Add(-1 * time.Second))
	srv.History().Sample(time.Now())

	// Without ?name= the endpoint describes itself.
	code, _, data := getBody(t, ts.URL+"/debug/metrics/history")
	if code != http.StatusOK || !strings.Contains(string(data), "serve_request_seconds") {
		t.Fatalf("family listing: %d %s", code, data)
	}

	// A counter family: windowed rate, schema-valid document.
	code, _, data = getBody(t, ts.URL+"/debug/metrics/history?name=serve_requests_total&window=30s&step=1s")
	if code != http.StatusOK {
		t.Fatalf("history query: %d %s", code, data)
	}
	doc, err := series.ReadHistory(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("history document invalid: %v\n%s", err, data)
	}
	if doc.Kind != series.KindCounter || doc.Fn != "rate" {
		t.Fatalf("doc = %s/%s", doc.Kind, doc.Fn)
	}
	var nonEmpty bool
	for _, p := range doc.Points {
		if p.V != nil && *p.V > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		t.Fatalf("no windowed rate in %s", data)
	}

	// A histogram family with an explicit quantile fn.
	code, _, data = getBody(t, ts.URL+"/debug/metrics/history?name=serve_request_seconds&window=30s&step=5s&fn=p90")
	if code != http.StatusOK {
		t.Fatalf("p90 query: %d %s", code, data)
	}
	if _, err := series.ReadHistory(bytes.NewReader(data)); err != nil {
		t.Fatalf("p90 document invalid: %v", err)
	}

	// Bad queries are 400s, not panics.
	for _, q := range []string{"?name=nope", "?name=serve_requests_total&fn=p50", "?name=serve_requests_total&window=bogus"} {
		if code, _, _ := getBody(t, ts.URL+"/debug/metrics/history"+q); code != http.StatusBadRequest {
			t.Fatalf("query %s: HTTP %d, want 400", q, code)
		}
	}

	// /v1/slo: schema-valid, all objectives judged or no-data, not
	// breaching under this healthy workload. Evaluations memoize for
	// one sampling interval and the collector already evaluated against
	// the then-empty store during the first tick, so step past the
	// interval to force a fresh evaluation.
	time.Sleep(60 * time.Millisecond)
	code, _, data = getBody(t, ts.URL+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("/v1/slo: %d %s", code, data)
	}
	st, err := slo.ReadStatus(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("slo status invalid: %v\n%s", err, data)
	}
	if len(st.Objectives) != 3 || st.Breaching {
		t.Fatalf("slo status = %+v", st)
	}
	for _, o := range st.Objectives {
		if o.Name == "job-errors" && (o.NoData || o.Events == 0 || o.BadEvents != 0) {
			t.Fatalf("job-errors objective unjudged under real traffic: %+v", o)
		}
	}

	// The burn gauges are scrapeable.
	code, _, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`slo_burn_rate{objective="job-errors"}`,
		`slo_error_budget_remaining{objective="request-latency"}`,
		"serve_job_cost_ns_per_ff_count",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}
}

// TestObservabilityEndpointsDisabledByDefault keeps the zero config
// honest: no history, no SLO, both endpoints 404.
func TestObservabilityEndpointsDisabledByDefault(t *testing.T) {
	_, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	if code, _, _ := getBody(t, ts.URL+"/debug/metrics/history"); code != http.StatusNotFound {
		t.Fatalf("history without config: %d", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/slo"); code != http.StatusNotFound {
		t.Fatalf("slo without config: %d", code)
	}
}

// TestSLOImpliesHistory checks the convenience wiring: an SLO config
// alone enables the series store with retention covering the slowest
// objective window.
func TestSLOImpliesHistory(t *testing.T) {
	srv, err := New(Config{SLO: testSLOConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if srv.History() == nil {
		t.Fatal("SLO config did not enable history")
	}
	if got := srv.History().Retention(); got < 30*time.Second {
		t.Fatalf("retention %v smaller than the slowest SLO window", got)
	}
	if srv.SLOEngine() == nil {
		t.Fatal("no SLO engine")
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

// TestReportsByteIdenticalWithSamplerRunning is the determinism
// acceptance check: with the background sampler actively ticking, a
// real engine-backed analysis must produce byte-identical report
// documents on a repeated identical submission, and a fresh
// recomputation on a second server must match on every content field
// (reports embed wall times — started_at, stage wall_ns, avg_*_ns —
// which are the only fields allowed to differ).
func TestReportsByteIdenticalWithSamplerRunning(t *testing.T) {
	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1}`
	runOnce := func() []byte {
		srv, ts := testServer(t, Config{
			History: &series.Config{Interval: 5 * time.Millisecond, Retention: time.Minute},
		}, nil) // nil run = the real engine path
		srv.History().Start() // background sampler ticking hard
		defer srv.History().Stop()

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
		// byte-identical by construction — and the sampler must not
		// have perturbed the stored document.
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
	b := runOnce() // fresh server: full recomputation, sampler running
	if na, nb := stripWallTimes(t, a), stripWallTimes(t, b); !bytes.Equal(na, nb) {
		t.Fatalf("recomputed report content differs across servers:\n%s\nvs\n%s", na, nb)
	}
}

// stripWallTimes zeroes a report's timing fields so content can be
// compared across independent recomputations.
func stripWallTimes(t *testing.T, data []byte) []byte {
	t.Helper()
	rep, err := obs.ReadReport(bytes.NewReader(data))
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

// TestLoadUnderChurn hammers /v1/load while jobs are submitted and
// canceled around a pinned worker, asserting the two signal invariants
// under concurrency: the oldest queued wait is monotone non-decreasing
// (the head of the queue only gets older while it is stuck) and the
// predicted backlog never goes negative. Run with -race.
func TestLoadUnderChurn(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 64},
		func(ctx context.Context, j *Job) ([]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return []byte(`{"stub":"done"}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	// Pin the worker and park one job at the head of the queue.
	var ids []string
	for seed := 1; seed <= 2; seed++ {
		body := fmt.Sprintf(`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":%d}`, seed)
		code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", seed, code, data)
		}
		ids = append(ids, decodeStatus(t, data).ID)
	}
	<-started

	// Churn: submit-and-cancel behind the parked head while the main
	// goroutine polls the signal.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := 100
		client := &http.Client{Timeout: 5 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			seed++
			body := fmt.Sprintf(`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":%d}`, seed)
			resp, err := client.Post(ts.URL+"/v1/analyses", "application/json", strings.NewReader(body))
			if err != nil {
				continue
			}
			var jst JobStatus
			_ = json.NewDecoder(resp.Body).Decode(&jst)
			resp.Body.Close()
			if jst.ID != "" {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/analyses/"+jst.ID, nil)
				if dresp, err := client.Do(req); err == nil {
					dresp.Body.Close()
				}
			}
		}
	}()

	prevWait := -1.0
	for i := 0; i < 40; i++ {
		ls := getLoad(t, ts.URL)
		if ls.PredictedBacklogSeconds < 0 {
			t.Fatalf("negative predicted backlog: %+v", ls)
		}
		if ls.OldestWaitSeconds < prevWait {
			t.Fatalf("oldest wait went backwards: %v -> %v", prevWait, ls.OldestWaitSeconds)
		}
		prevWait = ls.OldestWaitSeconds
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	close(release)
	for _, id := range ids {
		pollDone(t, ts.URL, id)
	}
	if ls := getLoad(t, ts.URL); ls.PredictedBacklogSeconds < 0 {
		t.Fatalf("negative backlog after drain: %+v", ls)
	}
}
