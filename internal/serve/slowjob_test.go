package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// slowEvents returns the job's "slow" flight-recorder events.
func slowEvents(t *testing.T, base, id string) []flight.Event {
	t.Helper()
	var out []flight.Event
	for _, ev := range eventsOf(t, base+"/debug/events?job="+id) {
		if ev.Name == "slow" {
			out = append(out, ev)
		}
	}
	return out
}

// TestSlowJobRecord exercises the slow-job path: one deliberately slow
// job must leave exactly one "slow" ring event carrying its duration
// and the threshold, a fast job under the same threshold none, and
// both jobs' span trees must reach the server tracer's sink.
func TestSlowJobRecord(t *testing.T) {
	sink := &obs.CollectorSink{}
	tracer := obs.NewTracer(sink)
	threshold := 50 * time.Millisecond
	srv, ts := testServer(t, Config{
		Workers:          2,
		SlowJobThreshold: threshold,
		Tracer:           tracer,
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		// Emit a child span under the job span like the real engine would.
		sp := tracer.Start(j.span, "work")
		if j.Label == "TreeFlat" {
			time.Sleep(threshold + 30*time.Millisecond)
		}
		sp.End()
		return []byte(`{}`), nil
	})

	code, _, data := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat"}`)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit: HTTP %d: %s", code, data)
	}
	slow := decodeStatus(t, data)
	code, _, data = postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"BasicSCB"}`)
	if code != http.StatusAccepted {
		t.Fatalf("fast submit: HTTP %d: %s", code, data)
	}
	fast := decodeStatus(t, data)
	pollDone(t, ts.URL, slow.ID)
	pollDone(t, ts.URL, fast.ID)

	evs := slowEvents(t, ts.URL, slow.ID)
	if len(evs) != 1 {
		t.Fatalf("want exactly 1 slow event for the slow job, got %d: %+v", len(evs), evs)
	}
	if e := evs[0]; e.Cat != "job" || !strings.Contains(e.Detail, "dur=") ||
		!strings.Contains(e.Detail, "threshold="+threshold.String()) {
		t.Errorf("slow event = %+v, want cat job with dur and threshold=%v", e, threshold)
	}
	if evs := slowEvents(t, ts.URL, fast.ID); len(evs) != 0 {
		t.Errorf("fast job has slow events: %+v", evs)
	}
	if n := srv.reg.Counter("serve_slow_jobs_total").Value(); n != 1 {
		t.Errorf("serve_slow_jobs_total = %d, want 1", n)
	}

	// Each job's span and its child reach the server tracer's sink.
	jobSpans := map[string]uint64{} // job id -> span id
	workParents := map[uint64]int{}
	for _, ev := range sink.Events() {
		switch ev.Name {
		case "job":
			id, _ := ev.Attrs["id"].(string)
			jobSpans[id] = ev.Span
		case "work":
			workParents[ev.Parent]++
		}
	}
	for _, id := range []string{slow.ID, fast.ID} {
		sp, ok := jobSpans[id]
		if !ok {
			t.Errorf("no job span for %s in the tracer sink", id)
		} else if workParents[sp] != 1 {
			t.Errorf("job %s: %d child work spans, want 1", id, workParents[sp])
		}
	}
}

// TestSlowJobThresholdGating: with a threshold no job reaches, no slow
// event is recorded and nothing is counted.
func TestSlowJobThresholdGating(t *testing.T) {
	srv, ts := testServer(t, Config{
		SlowJobThreshold: time.Hour,
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"BasicSCB"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	id := decodeStatus(t, data).ID
	pollDone(t, ts.URL, id)
	if evs := slowEvents(t, ts.URL, id); len(evs) != 0 {
		t.Fatalf("sub-threshold job recorded slow events: %+v", evs)
	}
	if n := srv.reg.Counter("serve_slow_jobs_total").Value(); n != 0 {
		t.Fatalf("serve_slow_jobs_total = %d, want 0", n)
	}
}

// gunzip decompresses a pprof blob (pprof profiles are gzipped
// protobufs; the gzip layer is the stdlib-checkable part).
func gunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	defer zr.Close()
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile gunzip: %v", err)
	}
	return raw
}

// TestProfileCaptureCPU runs a real engine job under ?profile=cpu and
// checks the captured blob parses as a pprof profile (gzip-framed
// protobuf), that the profiled run still warms the content cache for
// plain submissions, and the 404 path for unprofiled jobs.
func TestProfileCaptureCPU(t *testing.T) {
	_, ts := testServer(t, Config{}, nil) // real engine execute
	body := `{"benchmark":"BasicSCB","circuits":1,"specs":2,"target_scan_ffs":60}`

	code, _, data := postJSON(t, ts.URL+"/v1/analyses?profile=cpu", body)
	if code != http.StatusAccepted {
		t.Fatalf("profiled submit: HTTP %d (want 202, a profile must force a real run): %s", code, data)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if st.State != StateDone {
		t.Fatalf("profiled job ended %s: %s", st.State, st.Error)
	}
	if st.ProfileURL == "" {
		t.Fatalf("finished profiled job has no profile_url: %+v", st)
	}

	code, hdr, blob := getBody(t, ts.URL+st.ProfileURL)
	if code != http.StatusOK {
		t.Fatalf("profile fetch: HTTP %d: %s", code, blob)
	}
	if kind := hdr.Get("X-Profile-Kind"); kind != "cpu" {
		t.Errorf("X-Profile-Kind = %q, want cpu", kind)
	}
	if len(blob) < 2 || blob[0] != 0x1f || blob[1] != 0x8b {
		t.Fatalf("profile blob lacks gzip magic: % x", blob[:min(8, len(blob))])
	}
	if raw := gunzip(t, blob); len(raw) == 0 {
		t.Error("profile decompressed to nothing")
	}

	// The profiled run stored its report under the undecorated content
	// key: an identical plain submission is a cache hit.
	code, _, data = postJSON(t, ts.URL+"/v1/analyses", body)
	if code != http.StatusOK {
		t.Fatalf("plain resubmit after profiled run: HTTP %d (want 200 cache hit): %s", code, data)
	}
	if st := decodeStatus(t, data); st.Cache != "hit" {
		t.Errorf("cache = %q, want hit", st.Cache)
	}
	// ...and the plain job has no profile.
	code, _, data = getBody(t, ts.URL+"/v1/analyses/"+decodeStatus(t, data).ID+"/profile")
	if code != http.StatusNotFound {
		t.Errorf("unprofiled job profile fetch: HTTP %d (want 404): %s", code, data)
	}
}

// TestProfileCaptureHeap checks the heap kind end to end with a
// substituted workload (heap profiles do not depend on the engine).
func TestProfileCaptureHeap(t *testing.T) {
	_, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses?profile=heap", `{"benchmark":"BasicSCB"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	code, hdr, blob := getBody(t, ts.URL+"/v1/analyses/"+st.ID+"/profile")
	if code != http.StatusOK {
		t.Fatalf("profile fetch: HTTP %d: %s", code, blob)
	}
	if kind := hdr.Get("X-Profile-Kind"); kind != "heap" {
		t.Errorf("X-Profile-Kind = %q, want heap", kind)
	}
	gunzip(t, blob)
}

// TestProfileParamValidation rejects unknown profile kinds.
func TestProfileParamValidation(t *testing.T) {
	_, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses?profile=wallclock", `{"benchmark":"BasicSCB"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad profile kind: HTTP %d (want 400): %s", code, data)
	}
}
