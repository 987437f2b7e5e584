package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dep"
	"repro/internal/obs/reportdiff"
	"repro/internal/rsn"
)

// newTestListener serves an already-built Server on an httptest
// listener (testServer's sibling for tests that manage the Server
// lifecycle themselves, e.g. to restart over one store directory).
func newTestListener(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestDeltaSchedKeyHygiene pins the coalescing contract of delta jobs:
// the scheduler key carries a "#delta" decoration, so a delta can only
// ever coalesce with another delta of the identical (base key, script)
// pair — never with a plain submission, whatever its content key.
func TestDeltaSchedKeyHygiene(t *testing.T) {
	scr, err := (&rsn.EditScript{Ops: []rsn.EditOp{
		{Op: rsn.OpCutReconnect, Pin: "R1", Src: "SI"},
	}}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	d := &analysis{key: "k", script: scr}
	if got := d.schedKey(); got != "k#delta" {
		t.Fatalf("delta sched key = %q, want k#delta", got)
	}
	plain := &analysis{key: "k"}
	if got := plain.schedKey(); got != "k" {
		t.Fatalf("plain sched key = %q, want k", got)
	}
	if d.schedKey() == plain.schedKey() {
		t.Fatal("a delta job must never share a scheduler key with a plain job")
	}
	if contentKey(d.schedKey()) != "k" || contentKey("k#profile-cpu") != "k" || contentKey("k") != "k" {
		t.Fatal("contentKey must strip scheduler decorations")
	}

	// The derived key depends only on the canonicalized script and the
	// base key.
	loose, err := (&rsn.EditScript{Ops: []rsn.EditOp{
		{Op: "CUT-RECONNECT", Pin: "r1", Src: "si"},
	}}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if deltaKey("base", scr) != deltaKey("base", loose) {
		t.Fatal("canonically equal scripts must derive the same key")
	}
	if deltaKey("base", scr) == deltaKey("other", scr) {
		t.Fatal("the base key must participate in the derived key")
	}
	other, _ := (&rsn.EditScript{Ops: []rsn.EditOp{
		{Op: rsn.OpCutReconnect, Pin: "R2", Src: "SI"},
	}}).Canonical()
	if deltaKey("base", scr) == deltaKey("base", other) {
		t.Fatal("different scripts must derive different keys")
	}
}

// TestDeltaCoalescingAndValidation drives the delta endpoint against a
// stubbed job body: identical (base, script) submissions coalesce onto
// one job, different scripts get their own, and the endpoint's 4xx
// paths hold.
func TestDeltaCoalescingAndValidation(t *testing.T) {
	release := make(chan struct{})
	srv, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("{}"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	baseKey := strings.Repeat("a", 64)
	// A session record is what entitles a key to take deltas; the stub
	// body never hydrates it, so a placeholder is enough.
	if err := srv.store.Put(baseKey+sessionSuffix, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	deltaURL := ts.URL + "/v1/analyses/" + baseKey + "/delta"
	body := `{"script":{"ops":[{"op":"cut-reconnect","pin":"R1","src":"SI"}]}}`

	code, _, data := postJSON(t, deltaURL, body)
	if code != http.StatusAccepted {
		t.Fatalf("first delta: HTTP %d: %s", code, data)
	}
	st1 := decodeStatus(t, data)
	if st1.Cache != "miss" {
		t.Fatalf("first delta cache = %q", st1.Cache)
	}
	if !strings.HasSuffix(st1.Key, "#delta") {
		t.Fatalf("delta sched key %q lacks the #delta decoration", st1.Key)
	}

	code, _, data = postJSON(t, deltaURL, body)
	if code != http.StatusAccepted {
		t.Fatalf("identical delta: HTTP %d: %s", code, data)
	}
	st2 := decodeStatus(t, data)
	if st2.ID != st1.ID || st2.Cache != "coalesced" {
		t.Fatalf("identical delta did not coalesce: %+v vs %+v", st2, st1)
	}

	// A canonically equal spelling coalesces too.
	code, _, data = postJSON(t, deltaURL, `{"script":{"ops":[{"op":"CUT-RECONNECT","pin":"r1","src":"si"}]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("respelled delta: HTTP %d: %s", code, data)
	}
	if st := decodeStatus(t, data); st.ID != st1.ID {
		t.Fatal("canonically equal script did not coalesce")
	}

	// A different script is a different job.
	code, _, data = postJSON(t, deltaURL, `{"script":{"ops":[{"op":"cut-reconnect","pin":"R2","src":"SI"}]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("different delta: HTTP %d: %s", code, data)
	}
	if st := decodeStatus(t, data); st.ID == st1.ID {
		t.Fatal("different script coalesced onto the same job")
	}

	// Validation and resolution failures.
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown base", ts.URL + "/v1/analyses/nope/delta", body, http.StatusNotFound},
		{"no session", ts.URL + "/v1/analyses/" + strings.Repeat("b", 64) + "/delta", body, http.StatusConflict},
		{"empty ops", deltaURL, `{"script":{"ops":[]}}`, http.StatusBadRequest},
		{"no script", deltaURL, `{}`, http.StatusBadRequest},
		{"unknown op", deltaURL, `{"script":{"ops":[{"op":"swap","pin":"R0","src":"SI"}]}}`, http.StatusBadRequest},
		{"unknown field", deltaURL, `{"script":{"ops":[{"op":"connect","pin":"R0","src":"SI"}]},"x":1}`, http.StatusBadRequest},
		{"bad json", deltaURL, `{`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _, data := postJSON(t, c.url, c.body); code != c.want {
			t.Errorf("%s: HTTP %d (want %d): %s", c.name, code, c.want, data)
		}
	}

	// A delta against a still-running job is a 409: deltas build on
	// finished analyses only.
	code, _, data = postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("plain submit: HTTP %d: %s", code, data)
	}
	running := decodeStatus(t, data)
	if code, _, _ := postJSON(t, ts.URL+"/v1/analyses/"+running.ID+"/delta", body); code != http.StatusConflict {
		t.Fatalf("delta on running job: HTTP %d, want 409", code)
	}

	close(release)
	pollDone(t, ts.URL, st1.ID)
}

// deltaBody wraps an op list into a delta request body.
func deltaBody(ops string) string {
	return `{"script":{"ops":[` + ops + `]}}`
}

// runDelta posts a delta, waits for completion, and returns the decoded
// document plus its raw bytes and content key.
func runDelta(t *testing.T, baseURL, id, body string) (*reportdiff.DeltaDoc, []byte, string) {
	t.Helper()
	code, _, data := postJSON(t, baseURL+"/v1/analyses/"+id+"/delta", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("delta submit: HTTP %d: %s", code, data)
	}
	st := pollDone(t, baseURL, decodeStatus(t, data).ID)
	if st.State != StateDone {
		t.Fatalf("delta run: %+v", st)
	}
	code, h, rep := getBody(t, baseURL+st.ReportURL)
	if code != http.StatusOK {
		t.Fatalf("delta report: HTTP %d: %s", code, rep)
	}
	doc, err := reportdiff.ReadDeltaDoc(bytes.NewReader(rep))
	if err != nil {
		t.Fatalf("delta doc schema: %v\n%s", err, rep)
	}
	return doc, rep, h.Get("X-Content-Key")
}

// TestDeltaEndToEndRealEngine runs the incremental session flow against
// the real engine: ICL base analysis, a chain of two deltas, store-hit
// replay, and the document invariants (schema, parent keys, diff).
func TestDeltaEndToEndRealEngine(t *testing.T) {
	srv, ts := testServer(t, Config{Store: StoreConfig{Dir: t.TempDir()}}, nil)
	body, _ := json.Marshal(AnalysisRequest{ICL: serveICLSample})
	code, _, data := postJSON(t, ts.URL+"/v1/analyses", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("icl submit: HTTP %d: %s", code, data)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if st.State != StateDone {
		t.Fatalf("icl run: %+v", st)
	}
	_, h, _ := getBody(t, ts.URL+st.ReportURL)
	baseKey := h.Get("X-Content-Key")
	if !isContentKey(baseKey) {
		t.Fatalf("X-Content-Key %q is not a raw content address", baseKey)
	}
	if !srv.hasSession(baseKey) {
		t.Fatal("finished ICL analysis left no session")
	}

	// Delta 1: rewire register C (R2) to scan-in.
	doc1, rep1, key1 := runDelta(t, ts.URL, st.ID, deltaBody(`{"op":"cut-reconnect","pin":"R2","src":"SI"}`))
	if doc1.Schema != reportdiff.DeltaSchema {
		t.Fatalf("doc schema %q", doc1.Schema)
	}
	if doc1.BaseKey != baseKey {
		t.Fatalf("doc base key %s, want %s", doc1.BaseKey, baseKey)
	}
	if doc1.Key != key1 || !isContentKey(key1) {
		t.Fatalf("doc key %s, header %s", doc1.Key, key1)
	}
	if doc1.ScriptOps != 1 || doc1.ScriptHash == "" {
		t.Fatalf("script metadata: %+v", doc1)
	}
	if doc1.Diff == nil {
		t.Fatal("doc diff missing")
	}
	row := doc1.Report.Benchmarks[0]
	if row.Runs+row.SkippedInsecureLogic != 1 {
		t.Fatalf("delta report row accounts %+v", row)
	}

	// Identical resubmission: served from the store, byte-identical.
	code, _, data = postJSON(t, ts.URL+"/v1/analyses/"+st.ID+"/delta", deltaBody(`{"op":"cut-reconnect","pin":"R2","src":"SI"}`))
	if code != http.StatusOK {
		t.Fatalf("replayed delta: HTTP %d: %s", code, data)
	}
	st2 := decodeStatus(t, data)
	if st2.Cache != "hit" {
		t.Fatalf("replayed delta cache = %q", st2.Cache)
	}
	_, _, rep2 := getBody(t, ts.URL+st2.ReportURL)
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("replayed delta document differs")
	}

	// Delta 2 chains on delta 1's job: its parent is delta 1's key.
	d1job := pollDone(t, ts.URL, st2.ID)
	doc2, _, _ := runDelta(t, ts.URL, d1job.ID, deltaBody(`{"op":"cut-reconnect","pin":"R2","src":"R1"}`))
	if doc2.BaseKey != doc1.Key {
		t.Fatalf("chained doc base key %s, want %s", doc2.BaseKey, doc1.Key)
	}

	// A benchmark-form submission has no session: deltas are refused.
	code, _, data = postJSON(t, ts.URL+"/v1/analyses", `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":3,"target_scan_ffs":60}`)
	if code != http.StatusAccepted {
		t.Fatalf("benchmark submit: HTTP %d: %s", code, data)
	}
	bj := pollDone(t, ts.URL, decodeStatus(t, data).ID)
	if code, _, _ := postJSON(t, ts.URL+"/v1/analyses/"+bj.ID+"/delta", deltaBody(`{"op":"cut-reconnect","pin":"R0","src":"SI"}`)); code != http.StatusConflict {
		t.Fatalf("delta on benchmark run: HTTP %d, want 409", code)
	}
}

// benchRow strips the timing fields from a report row, leaving the
// deterministic outcome (structure and change counts).
func benchRow(doc *reportdiff.DeltaDoc) string {
	b := doc.Report.Benchmarks[0]
	return fmt.Sprintf("%s r%d ff%d mx%d runs%d viol%v pure%v hyb%v tot%v",
		b.Name, b.Registers, b.ScanFFs, b.Muxes, b.Runs,
		b.AvgViolatingRegs, b.AvgPureChanges, b.AvgHybridChanges, b.AvgTotalChanges)
}

// TestDeltaRestartResume is the durability acceptance check: a delta
// chain interrupted by a process restart continues from the persisted
// session record — re-hydrated from disk via the raw content key — and
// produces the same content keys and analysis outcomes as an
// uninterrupted chain in a single process life.
func TestDeltaRestartResume(t *testing.T) {
	dir := t.TempDir()
	d1body := deltaBody(`{"op":"cut-reconnect","pin":"R2","src":"SI"}`)
	d2body := deltaBody(`{"op":"cut-reconnect","pin":"R2","src":"R1"}`)
	iclBody, _ := json.Marshal(AnalysisRequest{ICL: serveICLSample})

	submitICL := func(ts string) string {
		code, _, data := postJSON(t, ts+"/v1/analyses", string(iclBody))
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("icl submit: HTTP %d: %s", code, data)
		}
		st := pollDone(t, ts, decodeStatus(t, data).ID)
		if st.State != StateDone {
			t.Fatalf("icl run: %+v", st)
		}
		return st.ID
	}

	// Life 1: base analysis + first delta, then a clean shutdown.
	srv1, err := New(Config{Store: StoreConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestListener(t, srv1)
	baseID := submitICL(ts1)
	doc1, _, key1 := runDelta(t, ts1, baseID, d1body)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("life-1 shutdown: %v", err)
	}
	cancel()

	// Life 2: a fresh process over the same store directory. The job
	// records of life 1 are gone; the chain continues from delta 1's
	// raw content key, re-hydrating the session from disk.
	srv2, err := New(Config{Store: StoreConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestListener(t, srv2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	})
	if srv2.hasSession(key1) != true {
		t.Fatal("persisted session not visible after restart")
	}
	doc2, _, _ := runDelta(t, ts2, key1, d2body)
	if doc2.BaseKey != key1 {
		t.Fatalf("resumed doc base key %s, want %s", doc2.BaseKey, key1)
	}

	// Control: the identical chain in one uninterrupted life must agree
	// on every content key and every deterministic outcome field.
	srvC, err := New(Config{Store: StoreConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	tsC := newTestListener(t, srvC)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srvC.Shutdown(ctx)
	})
	baseC := submitICL(tsC)
	doc1C, _, _ := runDelta(t, tsC, baseC, d1body)
	doc2C, _, _ := runDelta(t, tsC, doc1C.Key, d2body)
	if doc1C.Key != doc1.Key || doc2C.Key != doc2.Key {
		t.Fatalf("content keys diverge across restart:\n interrupted %s %s\n single life %s %s",
			doc1.Key, doc2.Key, doc1C.Key, doc2C.Key)
	}
	if benchRow(doc2) != benchRow(doc2C) {
		t.Fatalf("resumed outcome diverges:\n %s\n %s", benchRow(doc2), benchRow(doc2C))
	}
}

// TestSessionRegisterEviction checks the live-session LRU: the cap
// holds, the newest session survives, and eviction only forgets the
// in-memory state (persisted records keep the key delta-capable).
func TestSessionRegisterEviction(t *testing.T) {
	srv, err := New(Config{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	for i := 0; i < 3; i++ {
		srv.registerSession(&session{hydrated: true, key: fmt.Sprintf("k%d", i)})
	}
	srv.sessMu.Lock()
	defer srv.sessMu.Unlock()
	if len(srv.sessions) != 2 {
		t.Fatalf("%d live sessions, cap 2", len(srv.sessions))
	}
	if _, ok := srv.sessions["k2"]; !ok {
		t.Fatal("newest session evicted")
	}
	if _, ok := srv.sessions["k0"]; ok {
		t.Fatal("oldest session kept beyond the cap")
	}
}

func TestModeNameRoundTrip(t *testing.T) {
	for _, name := range []string{"exact", "structural"} {
		m, err := dep.ParseMode(name)
		if err != nil {
			t.Fatal(err)
		}
		if modeName(m) != name {
			t.Fatalf("modeName(dep.ParseMode(%q)) = %q", name, modeName(m))
		}
	}
	if _, err := dep.ParseMode("psychic"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
