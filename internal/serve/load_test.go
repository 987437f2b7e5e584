package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
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

// TestCostModel covers the predicted-backlog estimator: a cold model
// predicts nothing, a sized job is predicted at the p90 rate times its
// size, a job of unknown size predicts 0, a rate past the last bucket
// clamps to that bound, and /v1/load stays finite JSON when it does.
func TestCostModel(t *testing.T) {
	m := newCostModel(obs.NewRegistry())
	if got := m.estimate(100); got != 0 {
		t.Fatalf("cold model estimate = %v, want 0", got)
	}
	m.observe(100, 100*time.Microsecond) // 1e3 ns/FF
	if got := m.estimate(50); got != 50*time.Microsecond {
		t.Fatalf("estimate(50) = %v, want 50µs", got)
	}
	// With one fast and one slow job, the p90 is the slow rate and the
	// p50 the fast one: the prediction follows the tail, not a blend.
	m.observe(100, 3*time.Millisecond) // 3e4 ns/FF
	if got := m.estimate(50); got != 1500*time.Microsecond {
		t.Fatalf("estimate(50) = %v, want 1.5ms (p90 3e4 ns/FF × 50)", got)
	}
	if p50 := m.quantile(0.5); p50 != 1e3 {
		t.Fatalf("p50 = %v, want 1e3", p50)
	}
	// A job of unknown size (a delta) predicts 0 and records no rate.
	m.observe(0, time.Second)
	if got := m.estimate(0); got != 0 {
		t.Fatalf("unknown-size estimate = %v, want 0", got)
	}
	if n := m.rate.Count(); n != 2 {
		t.Fatalf("rate samples = %d, want 2 (sizeless jobs carry no rate)", n)
	}

	// 60 FFs in 1s is 1.67e7 ns/FF, past the last bound: the quantile
	// clamps to 1e7 instead of +Inf.
	over := newCostModel(obs.NewRegistry())
	over.observe(60, time.Second)
	if p90 := over.quantile(0.9); p90 != 1e7 {
		t.Fatalf("overflow p90 = %v, want the 1e7 clamp", p90)
	}
	if got := over.estimate(60); got != 600*time.Millisecond {
		t.Fatalf("overflow estimate(60) = %v, want 600ms", got)
	}

	srv, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	srv.cost.observe(60, time.Second)
	ls := getLoad(t, ts.URL)
	if ls.CostP50NSPerFF != 1e7 || ls.CostP90NSPerFF != 1e7 {
		t.Fatalf("/v1/load cost percentiles = %v/%v, want the 1e7 clamp", ls.CostP50NSPerFF, ls.CostP90NSPerFF)
	}
}

// TestBacklogTracksSlowModeUnderBimodalMix: under a bimodal job mix
// (cheap pure-path jobs interleaved with SAT-heavy ones) the p50 lands
// at the fast mode and the p90 at the slow mode, so the prediction
// reflects the slow mode even right after a fast job finished.
func TestBacklogTracksSlowModeUnderBimodalMix(t *testing.T) {
	m := newCostModel(obs.NewRegistry())
	const ffs = 1000
	fast := time.Duration(ffs) * 2 * time.Microsecond // 2e3 ns/FF
	slow := time.Duration(ffs) * 2 * time.Millisecond // 2e6 ns/FF
	for i := 0; i < 25; i++ {                         // interleaved bimodal mix
		for _, d := range []time.Duration{slow, fast} { // ends on a fast job
			m.observe(ffs, d)
		}
	}
	// The bimodal distribution splits across the bucket grid: p50 lands
	// at the fast mode's bucket, p90 at the slow mode's.
	if p50 := m.quantile(0.5); p50 > 3e3 {
		t.Fatalf("p50 = %v, want the fast mode (<= 3e3)", p50)
	}
	if p90 := m.quantile(0.9); p90 < 2e6 {
		t.Fatalf("p90 = %v, want the slow mode (>= 2e6)", p90)
	}
	if est := m.estimate(ffs); est < 2*time.Second {
		t.Fatalf("estimate = %v, want >= 2s (slow mode)", est)
	}
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
