package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/perfrec"
)

func getLoad(t *testing.T, base string) LoadStatus {
	t.Helper()
	code, _, data := getBody(t, base+"/v1/load")
	if code != http.StatusOK {
		t.Fatalf("/v1/load: HTTP %d: %s", code, data)
	}
	var ls LoadStatus
	if err := json.Unmarshal(data, &ls); err != nil {
		t.Fatalf("decode load: %v\n%s", err, data)
	}
	return ls
}

// TestLoadSignalUnderSaturation drives the server into saturation (one
// worker pinned, three submissions queued) and checks the autoscale
// surface end to end: /v1/load, the /metrics gauges, and the /readyz
// flip — then verifies everything drains back to idle.
func TestLoadSignalUnderSaturation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv, ts := testServer(t, Config{
		Workers:             1,
		SaturationThreshold: time.Millisecond,
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`{"stub":"done"}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	// Idle: nothing running, nothing queued, not saturated.
	ls := getLoad(t, ts.URL)
	if ls.Workers != 1 || ls.Running != 0 || ls.QueueDepth != 0 || ls.Saturated {
		t.Fatalf("idle load = %+v", ls)
	}
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("idle readyz = %d", code)
	}

	// Saturate: four distinct submissions against one pinned worker.
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":%d}`, seed)
		code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", seed, code, data)
		}
		ids = append(ids, decodeStatus(t, data).ID)
	}
	<-started // the worker holds job 1; jobs 2..4 queue behind it

	// Let the oldest queued wait exceed the 1ms saturation threshold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls = getLoad(t, ts.URL)
		if ls.Saturated || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ls.Workers != 1 || ls.Running != 1 || ls.QueueDepth != 3 {
		t.Fatalf("saturated load = %+v, want 1 running, 3 queued", ls)
	}
	if ls.WorkerBusy != 1 {
		t.Fatalf("worker_busy = %v, want 1", ls.WorkerBusy)
	}
	if ls.OldestWaitSeconds <= 0 || ls.PredictedBacklogSeconds < ls.OldestWaitSeconds {
		t.Fatalf("backlog %v must be positive and floored by oldest wait %v",
			ls.PredictedBacklogSeconds, ls.OldestWaitSeconds)
	}
	if !ls.Saturated || ls.SaturationThresholdSeconds != 0.001 {
		t.Fatalf("saturation flags = %+v", ls)
	}

	// /readyz reports saturation as 503 so load balancers back off.
	code, _, data := getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(data), "saturated") {
		t.Fatalf("saturated readyz = %d: %s", code, data)
	}

	// The same signal is scrapeable: every worker busy = 1000 permille.
	code, _, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"serve_worker_busy_permille 1000", "serve_workers 1",
		"serve_queue_oldest_wait_ms", "serve_predicted_backlog_ms"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	// Drain and verify the signal recovers.
	close(release)
	for _, id := range ids {
		pollDone(t, ts.URL, id)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		ls = getLoad(t, ts.URL)
		if (ls.Running == 0 && ls.QueueDepth == 0 && !ls.Saturated) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ls.Running != 0 || ls.QueueDepth != 0 || ls.Saturated {
		t.Fatalf("drained load = %+v", ls)
	}
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("drained readyz = %d", code)
	}
	_ = srv
}

// TestCostModel covers the predicted-backlog estimator: seeding from a
// bench record, EWMA refinement from observed jobs, and the whole-job
// fallback for jobs of unknown size.
func TestCostModel(t *testing.T) {
	m := newCostModel(nil)
	if got := m.estimate(100); got != 0 {
		t.Fatalf("cold model estimate = %v, want 0", got)
	}
	// First observation is adopted outright; later ones blend.
	m.observe(100, 100*time.Millisecond) // 1ms per FF
	if got := m.estimate(50); got != 50*time.Millisecond {
		t.Fatalf("estimate(50) = %v, want 50ms", got)
	}
	m.observe(100, 200*time.Millisecond)
	est := m.estimate(100)
	if est <= 100*time.Millisecond || est >= 200*time.Millisecond {
		t.Fatalf("EWMA estimate = %v, want between the observations", est)
	}
	// Unknown size falls back to the whole-job EWMA.
	if got := m.estimate(0); got <= 0 {
		t.Fatalf("whole-job fallback = %v", got)
	}

	// A bench record seeds ns-per-FF before any job has run: 2e6 ns
	// over 1000 FFs = 2000 ns/FF median.
	rec := &perfrec.Record{Benchmarks: []perfrec.Benchmark{
		{ScanFFs: 1000, Stages: []perfrec.Stage{{MedianNS: 1_000_000}, {MedianNS: 1_000_000}}},
		{ScanFFs: 0, Stages: []perfrec.Stage{{MedianNS: 5_000_000}}}, // ignored: no size
	}}
	seeded := newCostModel(rec)
	if got := seeded.estimate(1000); got != 2*time.Millisecond {
		t.Fatalf("seeded estimate(1000) = %v, want 2ms", got)
	}
}
