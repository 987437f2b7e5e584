package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// aliasBody is an inline submission small enough to run in
// milliseconds (4 scan flip-flops).
func aliasBody(t *testing.T) string {
	t.Helper()
	body, err := json.Marshal(AnalysisRequest{ICL: serveICLSample})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// submitAndFetch posts body, waits for the job and returns the HTTP
// code of the submission, its status and the finished report.
func submitAndFetch(t *testing.T, base, path, body string) (int, JobStatus, []byte) {
	t.Helper()
	code, _, data := postJSON(t, base+path, body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	if done := pollDone(t, base, st.ID); done.State != StateDone {
		t.Fatalf("job %s ended %s: %s", st.ID, done.State, done.Error)
	}
	rcode, _, rep := getBody(t, base+"/v1/analyses/"+st.ID+"/report")
	if rcode != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", rcode, rep)
	}
	return code, st, rep
}

// startAt boots a server over cfg on an httptest listener; stop shuts
// it down (also registered as cleanup, where a second call is a no-op).
func startAt(t *testing.T, cfg Config) (srv *Server, base string, stop func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base = newTestListener(t, srv)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	t.Cleanup(stop)
	return srv, base, stop
}

// TestAliasHitServesStoredReport checks that an identical resubmission
// is answered from its alias: 200 hit, the byte-identical report, one
// store hit and no store miss. A body the decoder would refuse, aliased
// by hand to the same key, gets the same answer: the alias path never
// decodes.
func TestAliasHitServesStoredReport(t *testing.T) {
	reg := obs.NewRegistry()
	srv, base, _ := startAt(t, Config{Registry: reg})
	body := aliasBody(t)
	code, st, first := submitAndFetch(t, base, "/v1/analyses", body)
	if code != http.StatusAccepted || st.Cache != "miss" {
		t.Fatalf("first submission: HTTP %d cache %q, want 202 miss", code, st.Cache)
	}
	raw, ok := srv.store.find(srv.submissionKey([]byte(body)), false)
	if !ok {
		t.Fatal("no alias recorded after the run")
	}
	var rec aliasRecord
	if err := json.Unmarshal(raw, &rec); err != nil || rec.Key != contentKey(st.Key) || rec.Label != "annotated" {
		t.Fatalf("alias record %s (err %v), want key %s label annotated", raw, err, contentKey(st.Key))
	}

	hits := reg.Counter("serve_store_hits_total")
	misses := reg.Counter("serve_store_misses_total")
	hits0, misses0 := hits.Value(), misses.Value()
	code, st2, again := submitAndFetch(t, base, "/v1/analyses", body)
	if code != http.StatusOK || st2.Cache != "hit" || st2.Label != "annotated" || st2.Key != st.Key {
		t.Fatalf("resubmission: HTTP %d %+v, want 200 hit for key %s", code, st2, st.Key)
	}
	if string(again) != string(first) {
		t.Fatal("alias hit served a report that differs from the original")
	}
	if d := hits.Value() - hits0; d != 1 {
		t.Errorf("serve_store_hits_total grew by %d, want 1", d)
	}
	if d := misses.Value() - misses0; d != 0 {
		t.Errorf("serve_store_misses_total grew by %d, want 0", d)
	}

	bogus := `not json at all`
	if err := srv.store.Put(srv.submissionKey([]byte(bogus)), raw); err != nil {
		t.Fatal(err)
	}
	if code, st3, rep := submitAndFetch(t, base, "/v1/analyses", bogus); code != http.StatusOK || st3.Cache != "hit" || string(rep) != string(first) {
		t.Fatalf("hand-aliased body: HTTP %d cache %q, want the stored report as a 200 hit", code, st3.Cache)
	}
}

// TestAliasFallsBackWhenReportEvicted evicts the report an alias names
// from a memory-only store: the submission runs the full resolve path,
// counts one miss and gets the same report again (wall times aside, as
// for any recomputation).
func TestAliasFallsBackWhenReportEvicted(t *testing.T) {
	reg := obs.NewRegistry()
	srv, base, _ := startAt(t, Config{Registry: reg, Store: StoreConfig{MaxEntries: 3}})
	body := aliasBody(t)
	_, st, first := submitAndFetch(t, base, "/v1/analyses", body)
	sub := srv.submissionKey([]byte(body))
	// Fillers push the session record and then the report out of the
	// LRU; touching the alias keeps it the newest entry.
	for i := 0; i < 2; i++ {
		if _, ok := srv.store.find(sub, false); !ok {
			t.Fatalf("alias evicted before filler %d", i)
		}
		if err := srv.store.Put(testKey(i), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := srv.store.find(sub, false); !ok {
		t.Fatal("alias evicted")
	}
	if srv.store.Contains(contentKey(st.Key)) {
		t.Fatal("report still resident; the fillers did not evict it")
	}
	misses := reg.Counter("serve_store_misses_total")
	misses0 := misses.Value()
	code, st2, again := submitAndFetch(t, base, "/v1/analyses", body)
	if code != http.StatusAccepted || st2.Cache != "miss" {
		t.Fatalf("submission after eviction: HTTP %d cache %q, want 202 miss", code, st2.Cache)
	}
	if !bytes.Equal(stripWallTimes(t, again), stripWallTimes(t, first)) {
		t.Fatal("re-run after eviction produced a different report")
	}
	if d := misses.Value() - misses0; d != 1 {
		t.Errorf("serve_store_misses_total grew by %d, want 1", d)
	}
}

// TestAliasSkippedForProfile checks that a profile request still runs
// the analysis although the body has an alias.
func TestAliasSkippedForProfile(t *testing.T) {
	_, base, _ := startAt(t, Config{})
	body := aliasBody(t)
	submitAndFetch(t, base, "/v1/analyses", body)
	code, st, _ := submitAndFetch(t, base, "/v1/analyses?profile=cpu", body)
	if code != http.StatusAccepted || st.Cache != "miss" {
		t.Fatalf("profiled resubmission: HTTP %d cache %q, want 202 miss (a real run)", code, st.Cache)
	}
}

// TestAliasAcrossRestart checks aliases persisted under -store-dir: a
// restart with the same scan-FF cap answers the body from its alias,
// and a restart with a lower cap refuses it, since the cap is part of
// the alias digest.
func TestAliasAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := aliasBody(t)
	srv1, base1, stop1 := startAt(t, Config{Store: StoreConfig{Dir: dir}})
	_, _, first := submitAndFetch(t, base1, "/v1/analyses", body)
	stop1()
	if _, err := os.Stat(filepath.Join(dir, srv1.submissionKey([]byte(body))+".json")); err != nil {
		t.Fatalf("alias file: %v", err)
	}

	reg := obs.NewRegistry()
	_, base2, stop2 := startAt(t, Config{Registry: reg, Store: StoreConfig{Dir: dir}})
	code, st, again := submitAndFetch(t, base2, "/v1/analyses", body)
	if code != http.StatusOK || st.Cache != "hit" || string(again) != string(first) {
		t.Fatalf("after restart: HTTP %d cache %q, want the stored report as a 200 hit", code, st.Cache)
	}
	if h, m := reg.Counter("serve_store_hits_total").Value(), reg.Counter("serve_store_misses_total").Value(); h != 1 || m != 0 {
		t.Errorf("store hits/misses after restart = %d/%d, want 1/0", h, m)
	}
	stop2()

	_, base3, _ := startAt(t, Config{Store: StoreConfig{Dir: dir}, Limits: Limits{MaxScanFFs: 3}})
	code, _, data := postJSON(t, base3+"/v1/analyses", body)
	if code != http.StatusBadRequest {
		t.Fatalf("over-cap body after a restart with a lower cap: HTTP %d: %s, want 400", code, data)
	}
}

// TestCorruptAliasIgnored overwrites an alias file with text that does
// not decode and with records naming no content key: the submission
// takes the full resolve path and is answered by its store hit there.
func TestCorruptAliasIgnored(t *testing.T) {
	dir := t.TempDir()
	body := aliasBody(t)
	srv1, base1, stop1 := startAt(t, Config{Store: StoreConfig{Dir: dir}})
	_, st, first := submitAndFetch(t, base1, "/v1/analyses", body)
	stop1()
	file := filepath.Join(dir, srv1.submissionKey([]byte(body))+".json")
	// The last record names the session record stored next to the
	// report: a file that exists, but no content key.
	session := contentKey(st.Key) + sessionSuffix
	if _, err := os.Stat(filepath.Join(dir, session+".json")); err != nil {
		t.Fatalf("session record: %v", err)
	}
	for _, corrupt := range []string{`{"key":`, `{"key":"../../etc/passwd","label":"x"}`,
		`{"key":"ABCDEF","label":"x"}`, `{"key":"` + session + `","label":"x"}`} {
		if err := os.WriteFile(file, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		_, base, stop := startAt(t, Config{Registry: reg, Store: StoreConfig{Dir: dir}})
		code, st, again := submitAndFetch(t, base, "/v1/analyses", body)
		if code != http.StatusOK || st.Cache != "hit" || string(again) != string(first) {
			t.Fatalf("alias %q: HTTP %d cache %q, want the resolved store hit", corrupt, code, st.Cache)
		}
		if h, m := reg.Counter("serve_store_hits_total").Value(), reg.Counter("serve_store_misses_total").Value(); h != 1 || m != 0 {
			t.Errorf("alias %q: store hits/misses = %d/%d, want 1/0", corrupt, h, m)
		}
		stop()
	}
}

// TestAliasConcurrentHits resubmits one body from several goroutines
// at once: every request is an alias hit on the same report bytes.
func TestAliasConcurrentHits(t *testing.T) {
	reg := obs.NewRegistry()
	_, base, _ := startAt(t, Config{Registry: reg})
	body := aliasBody(t)
	_, st, first := submitAndFetch(t, base, "/v1/analyses", body)
	hits0 := reg.Counter("serve_store_hits_total").Value()
	const workers, each = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := http.Post(base+"/v1/analyses", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got JobStatus
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || got.Cache != "hit" || got.Key != st.Key {
					t.Errorf("concurrent resubmission: HTTP %d %+v (err %v)", resp.StatusCode, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d := reg.Counter("serve_store_hits_total").Value() - hits0; d != workers*each {
		t.Errorf("serve_store_hits_total grew by %d, want %d", d, workers*each)
	}
	_, _, again := getBody(t, base+"/v1/analyses/"+st.ID+"/report")
	if !bytes.Equal(again, first) {
		t.Error("report bytes changed under concurrent hits")
	}
}
