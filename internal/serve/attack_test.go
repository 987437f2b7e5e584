package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/rsn"
)

// attackBody generates a small obfuscated network (ICL + overlay
// sidecar with the embedded defender key) and marshals it as an
// AttackRequest body.
func attackBody(t *testing.T, mutate func(*AttackRequest)) string {
	t.Helper()
	var iclBuf, ovBuf bytes.Buffer
	_, err := bench.StreamScaleICL(&iclBuf, &ovBuf, bench.ScaleGenConfig{
		TargetScanFFs: 24, SIBFanout: 3, LeafLen: 4, Modules: 2,
		Seed: 9, ObfKeyBits: 4, ObfMuxShare: -1,
	})
	if err != nil {
		t.Fatalf("StreamScaleICL: %v", err)
	}
	req := AttackRequest{ICL: iclBuf.String(), Overlay: json.RawMessage(ovBuf.Bytes())}
	if mutate != nil {
		mutate(&req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestAttackValidation(t *testing.T) {
	_, ts := testServer(t, Config{}, nil)
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"bad json", `{`},
		{"unknown field", `{"icl":"x","frobnicate":1}`},
		{"no overlay", attackBody(t, func(r *AttackRequest) { r.Overlay = nil })},
		{"bad icl", attackBody(t, func(r *AttackRequest) { r.ICL = "ScanNetwork {" })},
		{"bad overlay", attackBody(t, func(r *AttackRequest) { r.Overlay = json.RawMessage(`{"schema":"nope"}`) })},
		{"no key", attackBody(t, func(r *AttackRequest) {
			// Strip the embedded key from the sidecar and give no
			// override: the oracle has nothing to answer with.
			var doc map[string]any
			if err := json.Unmarshal(r.Overlay, &doc); err != nil {
				t.Fatal(err)
			}
			delete(doc, "key")
			raw, _ := json.Marshal(doc)
			r.Overlay = raw
		})},
		{"bad key override", attackBody(t, func(r *AttackRequest) { r.Key = "zz" })},
		{"both skipped", attackBody(t, func(r *AttackRequest) { r.SkipSAT = true; r.SkipFlush = true })},
		{"negative budget", attackBody(t, func(r *AttackRequest) { r.Horizon = -1 })},
	}
	for _, c := range cases {
		code, _, data := postJSON(t, ts.URL+"/v1/attacks", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (want 400): %s", c.name, code, data)
		}
	}
}

func TestAttackScanFFCap(t *testing.T) {
	_, ts := testServer(t, Config{Limits: Limits{MaxScanFFs: 10}}, nil)
	code, _, data := postJSON(t, ts.URL+"/v1/attacks", attackBody(t, nil))
	if code != http.StatusBadRequest || !strings.Contains(string(data), "cap") {
		t.Fatalf("HTTP %d: %s (want 400 with cap message)", code, data)
	}
}

// TestAttackEndToEndCachedReplay runs a real attack job, then replays
// the identical submission and requires the cached response bytes to
// equal the first run's — the report carries no wall-clock timings, so
// content addressing is sound.
func TestAttackEndToEndCachedReplay(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1}, nil)
	body := attackBody(t, nil)

	code, _, data := postJSON(t, ts.URL+"/v1/attacks", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	if st.Cache != "miss" {
		t.Fatalf("first submission cache %q, want miss", st.Cache)
	}
	done := pollDone(t, ts.URL, st.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s: %s", done.State, done.Error)
	}
	code, _, rep1 := getBody(t, ts.URL+"/v1/attacks/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", code, rep1)
	}
	rep, err := obs.ReadDoc[obfus.Report](bytes.NewReader(rep1))
	if err != nil {
		t.Fatalf("report does not validate: %v", err)
	}
	if rep.SAT == nil || rep.SAT.Outcome != obfus.OutcomeRecovered || !rep.SAT.Verified {
		t.Fatalf("SAT section: %+v", rep.SAT)
	}
	if want := rsn.KeyHex(rsn.KeyFromSeed(9, 4)); rep.SAT.RecoveredKey != want {
		t.Fatalf("recovered key %s, want %s", rep.SAT.RecoveredKey, want)
	}
	if rep.SAT.TimeNS != 0 || (rep.Flush != nil && rep.Flush.TimeNS != 0) {
		t.Fatal("served report carries wall-clock timings; replays would not be byte-identical")
	}

	// Replay: answered from the store, byte-identical document.
	code, _, data = postJSON(t, ts.URL+"/v1/attacks", body)
	if code != http.StatusOK {
		t.Fatalf("replay: HTTP %d: %s", code, data)
	}
	st2 := decodeStatus(t, data)
	if st2.Cache != "hit" {
		t.Fatalf("replay cache %q, want hit", st2.Cache)
	}
	code, _, rep2 := getBody(t, ts.URL+"/v1/attacks/"+st2.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("replay report: HTTP %d", code)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("cached replay is not byte-identical:\n%s\n---\n%s", rep1, rep2)
	}

	// The job left its marks: attack metrics on /metrics, attack events
	// in the flight recorder.
	code, _, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{"serve_attack_jobs_total 1", "serve_attack_keys_recovered_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if srv.atkMetrics.satIters.Value() < 1 || srv.atkMetrics.satSolves.Value() < 1 {
		t.Errorf("solver metrics not accumulated: iters=%d solves=%d",
			srv.atkMetrics.satIters.Value(), srv.atkMetrics.satSolves.Value())
	}
	code, _, events := getBody(t, ts.URL+"/debug/events?cat=attack")
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	for _, want := range []string{`"event": "submit"`, `"event": "report"`} {
		if !strings.Contains(string(events), want) {
			t.Errorf("flight recorder missing attack %s event:\n%s", want, events)
		}
	}
}
