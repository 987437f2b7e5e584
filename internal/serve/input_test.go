package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveBenchLinked backs serveICLLinked's instrument links with a real
// circuit. crypto.I0 is referenced by no link, so it is internal: the
// dependency analysis bridges over it.
const serveBenchLinked = `INPUT(pi0)
g0 = AND(pi0, crypto.I0)
g1 = XOR(crypto.F0, untrusted.F0)
g2 = OR(crypto.F1, pi0)
# @module crypto
crypto.F0 = DFF(g0)
crypto.F1 = DFF(crypto.F0)
crypto.I0 = DFF(g1)
# @module untrusted
untrusted.F0 = DFF(g2)
`

// TestContentKeyGoldens pins the content addresses of the three inline
// submission forms. A result store or a persisted session written by an
// earlier build is found again only while these keys stay the same, so
// a change here must be deliberate.
func TestContentKeyGoldens(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	analysisKey := func(req AnalysisRequest) string {
		t.Helper()
		a, err := srv.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		return a.key
	}
	var atk AttackRequest
	if err := json.Unmarshal([]byte(attackBody(t, nil)), &atk); err != nil {
		t.Fatal(err)
	}
	a, err := srv.resolveAttack(&atk)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"icl+bench", analysisKey(AnalysisRequest{ICL: serveICLLinked, Bench: serveBenchLinked}),
			"56d2ef7d7278f48bb779f1c4d1b3a58041b6afa5b9b0b385fe930dab3bddbaec"},
		{"linked icl, synthesized circuit", analysisKey(AnalysisRequest{ICL: serveICLLinked}),
			"442bba940635fefa54a1c47e7abacb592879dbdac5c218ae6b34ceb4ffd16c96"},
		{"link-free icl", analysisKey(AnalysisRequest{ICL: serveICLSample}),
			"f6174b577856d06ff1cc6517142cbc338bd6d7fbd1ddc3a547f26036f608fa16"},
		{"attack", a.key, "30fbe4dede982efcca2c650a96eee6c2de477987f02bee3782bc9798f537485f"},
	} {
		if c.got != c.want {
			t.Errorf("%s content key = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// serveICLOversized is a small annotated ICL file declaring a billion
// scan flip-flops: allocating them would exhaust the daemon's memory,
// so it must be refused from the declared lengths alone.
const serveICLOversized = `ScanNetwork "big" {
  Categories 2;
  Module "m" { Trust 0; Accepts 0, 1; }
  ScanRegister "R" { Length 1000000000; ScanInSource SI; Module "m"; }
  ScanOutSource Register "R";
}
`

func TestOversizedICLRefusedBeforeAllocating(t *testing.T) {
	_, ts := testServer(t, Config{}, nil)
	// A length far past the flip-flop ID range is refused the same way.
	for _, src := range []string{serveICLOversized,
		strings.Replace(serveICLOversized, "1000000000", "4000000000000000000", 1)} {
		analysis, _ := json.Marshal(AnalysisRequest{ICL: src})
		attack, _ := json.Marshal(AttackRequest{ICL: src, Overlay: json.RawMessage(`{}`)})
		for _, c := range []struct{ path, body string }{
			{"/v1/analyses", string(analysis)},
			{"/v1/attacks", string(attack)},
		} {
			code, _, data := postJSON(t, ts.URL+c.path, c.body)
			if code != http.StatusBadRequest || !strings.Contains(string(data), "cap") {
				t.Errorf("%s: HTTP %d: %s (want 400 with the cap message)", c.path, code, data)
			}
		}
	}
	if code, _, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after the oversized submissions: HTTP %d", code)
	}
}

// TestOversizedDeltaRefused checks that a delta script's added
// registers count against the scan-FF cap before the job is scheduled.
func TestOversizedDeltaRefused(t *testing.T) {
	_, ts := testServer(t, Config{Limits: Limits{MaxScanFFs: 10}}, nil)
	body, _ := json.Marshal(AnalysisRequest{ICL: serveICLSample})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("base submit: HTTP %d: %s", code, data)
	}
	base := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if base.State != StateDone {
		t.Fatalf("base run: %+v", base)
	}
	deltaURL := ts.URL + "/v1/analyses/" + base.ID + "/delta"
	addReg := func(name string, n int) string {
		return `{"op":"add-register","pin":"R0","src":"SI","name":"` + name + `","len":` + fmt.Sprint(n) + `,"module":0}`
	}
	for name, ops := range map[string]string{
		"one huge register":              addReg("huge", 1000000000),
		"registers summing past the cap": addReg("a", 6) + "," + addReg("b", 6),
	} {
		code, _, data := postJSON(t, deltaURL, `{"script":{"ops":[`+ops+`]}}`)
		if code != http.StatusBadRequest || !strings.Contains(string(data), "cap") {
			t.Errorf("%s: HTTP %d: %s (want 400 with the cap message)", name, code, data)
		}
	}
	if code, _, data := postJSON(t, deltaURL, `{"script":{"ops":[`+addReg("small", 6)+`]}}`); code != http.StatusAccepted {
		t.Errorf("delta within the cap: HTTP %d: %s", code, data)
	}
	if code, _, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after the oversized delta: HTTP %d", code)
	}
}
