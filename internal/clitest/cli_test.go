// Package clitest builds every cmd/ binary and audits their output
// discipline: under -q, stdout carries nothing but the machine
// artifact (a JSON report, an ICL file, DIMACS result lines — or
// nothing at all) and stderr stays empty, so the tools compose into
// pipelines without stray writes corrupting the stream.
package clitest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rsnsec-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"repro/cmd/rsnbench", "repro/cmd/rsnsec", "repro/cmd/rsnsat",
		"repro/cmd/rsngen", "repro/cmd/rsnserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(binDir)
		panic("building CLIs: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// runCLI executes one built binary and returns stdout and stderr
// separately.
func runCLI(t *testing.T, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestRsnbenchQuietStdoutIsPureJSON(t *testing.T) {
	stdout, stderr := runCLI(t, "rsnbench",
		"-table", "main", "-benchmarks", "TreeFlat",
		"-circuits", "1", "-specs", "2", "-ffbudget", "60",
		"-q", "-report", "-")
	if stderr != "" {
		t.Errorf("rsnbench -q wrote to stderr:\n%s", stderr)
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("rsnbench -q -report - stdout is not a single JSON document: %v\n%s", err, stdout)
	}
	if report["schema"] != "rsnsec.run-report/v1" {
		t.Errorf("unexpected schema: %v", report["schema"])
	}
}

func TestRsnbenchQuietWithoutReportIsSilent(t *testing.T) {
	stdout, stderr := runCLI(t, "rsnbench",
		"-table", "sizes", "-benchmarks", "TreeFlat", "-q")
	if stdout != "" || stderr != "" {
		t.Errorf("rsnbench -q must be silent, got stdout=%q stderr=%q", stdout, stderr)
	}
}

func TestRsnsecQuietIsSilent(t *testing.T) {
	stdout, stderr := runCLI(t, "rsnsec",
		"-benchmark", "TreeFlat", "-scale", "0.1", "-q", "-v")
	if stdout != "" {
		t.Errorf("rsnsec -q wrote to stdout:\n%s", stdout)
	}
	if stderr != "" {
		t.Errorf("rsnsec -q wrote to stderr (even with -v, quiet wins):\n%s", stderr)
	}
}

// TestRsnsecVerboseEngineLinesOnce checks that -v reports each engine
// progress event once, as one structured record, even when -log-level
// debug admits the engine's records on its own. The network carries its
// own specification, so the dependency analysis runs exactly once.
func TestRsnsecVerboseEngineLinesOnce(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, "rsngen", "-scale-ff", "200", "-with-spec", "-out", dir, "-q")
	_, stderr := runCLI(t, "rsnsec", "-icl", filepath.Join(dir, "scale200.icl"),
		"-v", "-log-level", "debug")
	seen := map[string]int{}
	for _, line := range strings.Split(stderr, "\n") {
		if strings.Contains(line, "engine:") {
			t.Errorf("unstructured engine line on stderr: %q", line)
		}
		if !strings.Contains(line, "component=engine") {
			continue
		}
		_, msg, _ := strings.Cut(line, " msg=")
		seen[msg]++
	}
	for _, stage := range []string{"one-cycle:", "bridge:", "closure:"} {
		found := false
		for msg, n := range seen {
			if strings.HasPrefix(msg, `"`+stage) {
				found = true
				if n != 1 {
					t.Errorf("engine line %s written %d times", msg, n)
				}
			}
		}
		if !found {
			t.Errorf("no %s engine record on stderr:\n%s", stage, stderr)
		}
	}
}

func TestRsnsecDeltaQuietStdoutIsPureJSON(t *testing.T) {
	script := filepath.Join(t.TempDir(), "edit.json")
	// add-register applies on any network, independent of the base
	// wiring, so the test is deterministic across benchmarks.
	if err := os.WriteFile(script, []byte(
		`{"ops":[{"op":"add-register","pin":"R0","src":"SI","name":"dx","len":1,"module":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := runCLI(t, "rsnsec",
		"-benchmark", "TreeFlat", "-scale", "0.1", "-delta", script, "-q")
	if stderr != "" {
		t.Errorf("rsnsec -delta -q wrote to stderr:\n%s", stderr)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("rsnsec -delta -q stdout is not a single JSON document: %v\n%s", err, stdout)
	}
	if doc["schema"] != "rsnsec.delta-report/v1" {
		t.Errorf("unexpected schema: %v", doc["schema"])
	}
	if doc["diff"] == nil || doc["report"] == nil {
		t.Errorf("delta document missing diff or report:\n%s", stdout)
	}
	if doc["script_ops"] != float64(1) {
		t.Errorf("script_ops = %v, want 1", doc["script_ops"])
	}
}

func TestRsngenQuietStdoutIsPureICL(t *testing.T) {
	stdout, stderr := runCLI(t, "rsngen",
		"-benchmark", "TreeFlat", "-scale", "0.05", "-q")
	if stderr != "" {
		t.Errorf("rsngen -q wrote to stderr:\n%s", stderr)
	}
	if !strings.HasPrefix(stdout, "ScanNetwork ") {
		t.Fatalf("rsngen stdout is not an ICL document:\n%.200s", stdout)
	}
}

func TestRsnsatQuietStdoutIsPureDIMACS(t *testing.T) {
	cnf := filepath.Join(t.TempDir(), "f.cnf")
	if err := os.WriteFile(cnf, []byte("p cnf 2 2\n1 2 0\n-1 2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binDir, "rsnsat"), "-q", "-stats", cnf)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 10 {
		t.Fatalf("rsnsat on a satisfiable formula: err=%v", err)
	}
	if errb.Len() != 0 {
		t.Errorf("rsnsat -q wrote to stderr:\n%s", errb.String())
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "s ") && !strings.HasPrefix(line, "v ") {
			t.Errorf("rsnsat -q emitted a non-result line: %q", line)
		}
	}
}

func TestRsnservedQuietIsSilent(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "rsnserved"),
		"-q", "-addr", "localhost:0", "-drain-timeout", "2s")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let it bind and settle
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rsnserved did not exit cleanly on SIGTERM: %v\nstderr: %s", err, errb.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("rsnserved ignored SIGTERM")
	}
	if out.Len() != 0 || errb.Len() != 0 {
		t.Errorf("rsnserved -q must be silent, got stdout=%q stderr=%q", out.String(), errb.String())
	}
}

// TestVersionFlag checks that every binary answers -version with a
// single stamped line naming the tool, and nothing else.
func TestVersionFlag(t *testing.T) {
	for _, tool := range []string{"rsnsec", "rsnbench", "rsngen", "rsnsat", "rsnserved"} {
		stdout, stderr := runCLI(t, tool, "-version")
		if stderr != "" {
			t.Errorf("%s -version wrote to stderr:\n%s", tool, stderr)
		}
		if !strings.HasPrefix(stdout, tool+" ") || strings.Count(stdout, "\n") != 1 {
			t.Errorf("%s -version output %q", tool, stdout)
		}
	}
}

// TestTraceWriteFailureFailsTheRun checks that a span journal the disk
// refuses fails the run with the write error on stderr, instead of
// exiting 0 with the journal cut short.
func TestTraceWriteFailureFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	for _, args := range [][]string{
		{"rsnsec", "-benchmark", "TreeFlat", "-scale", "0.1", "-q", "-trace", "/dev/full"},
		{"rsnbench", "-table", "main", "-benchmarks", "TreeFlat", "-circuits", "1",
			"-specs", "1", "-ffbudget", "60", "-q", "-trace", "/dev/full"},
	} {
		cmd := exec.Command(filepath.Join(binDir, args[0]), args[1:]...)
		var errb bytes.Buffer
		cmd.Stderr = &errb
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) {
			t.Errorf("%v: err = %v, want a nonzero exit", args, err)
			continue
		}
		if !strings.Contains(errb.String(), "trace journal: write /dev/full") {
			t.Errorf("%v: stderr lacks the trace write error:\n%s", args, errb.String())
		}
	}
}

// TestRsngenLoggingKeepsStdoutPure turns structured logging ON and
// checks the stream discipline still holds: the machine artifact owns
// stdout, the JSON log records own stderr.
func TestRsngenLoggingKeepsStdoutPure(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr := runCLI(t, "rsngen",
		"-benchmark", "TreeFlat", "-scale", "0.05", "-out", dir, "-log-format", "json")
	if stdout != "" {
		t.Errorf("rsngen with -out wrote to stdout:\n%s", stdout)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("stderr line is not a JSON record: %v\n%s", err, line)
		}
		if m["msg"] == "benchmark written" && m["benchmark"] == "TreeFlat" {
			found = true
		}
	}
	if !found {
		t.Errorf("no structured progress record on stderr:\n%s", stderr)
	}
}

// TestExplicitLogLevelOverridesQuiet checks the precedence contract:
// -q silences logging unless the user explicitly passed -log-level.
func TestExplicitLogLevelOverridesQuiet(t *testing.T) {
	dir := t.TempDir()
	_, stderr := runCLI(t, "rsngen",
		"-benchmark", "TreeFlat", "-scale", "0.05", "-out", dir, "-q", "-log-level", "info")
	if !strings.Contains(stderr, "benchmark written") {
		t.Errorf("-log-level info should override -q, stderr:\n%s", stderr)
	}
	_, stderr = runCLI(t, "rsngen",
		"-benchmark", "TreeFlat", "-scale", "0.05", "-out", dir, "-q")
	if stderr != "" {
		t.Errorf("-q alone must silence logging, stderr:\n%s", stderr)
	}
}

// TestRsnservedTelemetryEndToEnd boots the real daemon and follows one
// correlated request through the whole telemetry surface: the caller's
// X-Request-ID and traceparent must come back on the response, appear
// in the flight recorder, and land in the structured access log — with
// the access-log record carrying every schema field the log consumers
// (and the CI correlation job) rely on.
func TestRsnservedTelemetryEndToEnd(t *testing.T) {
	const (
		reqID   = "req-clitest-e2e"
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	)
	stderrPath := filepath.Join(t.TempDir(), "rsnserved.stderr")
	errf, err := os.Create(stderrPath)
	if err != nil {
		t.Fatal(err)
	}
	defer errf.Close()
	cmd := exec.Command(filepath.Join(binDir, "rsnserved"),
		"-addr", "localhost:0", "-drain-timeout", "10s",
		"-log-format", "json", "-readyz-saturation", "30s")
	cmd.Stderr = errf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its resolved listen address; poll the log for it.
	logRecords := func() []map[string]any {
		data, err := os.ReadFile(stderrPath)
		if err != nil {
			return nil
		}
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var m map[string]any
			if json.Unmarshal([]byte(line), &m) == nil {
				recs = append(recs, m)
			}
		}
		return recs
	}
	var base string
	deadline := time.Now().Add(15 * time.Second)
	for base == "" {
		for _, m := range logRecords() {
			if m["msg"] == "rsnserved listening" {
				base, _ = m["addr"].(string)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("rsnserved never logged its listen address")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One correlated submission against the real engine.
	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1,"target_scan_ffs":60,"seed":3}`
	req, err := http.NewRequest("POST", base+"/v1/analyses", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	req.Header.Set("Traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, respData)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("X-Request-ID echo = %q", got)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, traceID) {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, traceID)
	}
	var st struct {
		ID        string `json:"id"`
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
	}
	if err := json.Unmarshal(respData, &st); err != nil {
		t.Fatalf("decode status: %v\n%s", err, respData)
	}
	if st.RequestID != reqID || st.TraceID != traceID {
		t.Fatalf("job identity = %q/%q", st.RequestID, st.TraceID)
	}

	// Wait for the job, then check the flight recorder joins the IDs.
	deadline = time.Now().Add(60 * time.Second)
	for {
		r2, err := http.Get(base + "/v1/analyses/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var poll struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if err := json.Unmarshal(data, &poll); err != nil {
			t.Fatalf("poll decode: %v\n%s", err, data)
		}
		if poll.State == "done" {
			break
		}
		if poll.State == "failed" || poll.State == "canceled" {
			t.Fatalf("job %s: %s", poll.State, poll.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished (state %s)", poll.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	r3, err := http.Get(base + "/debug/events?job=" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	evData, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	if !strings.Contains(string(evData), reqID) || !strings.Contains(string(evData), traceID) {
		t.Fatalf("/debug/events lacks the request identity:\n%s", evData)
	}
	// The load surface answers while we are here.
	r4, err := http.Get(base + "/v1/load")
	if err != nil {
		t.Fatal(err)
	}
	loadData, _ := io.ReadAll(r4.Body)
	r4.Body.Close()
	if !strings.Contains(string(loadData), "predicted_backlog_seconds") {
		t.Fatalf("/v1/load shape:\n%s", loadData)
	}

	// Shut down and audit the access log: the submit record must carry
	// the forwarded identity and the full schema.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rsnserved exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rsnserved ignored SIGTERM")
	}
	found := false
	for _, m := range logRecords() {
		if m["msg"] != "access" || m["endpoint"] != "submit" {
			continue
		}
		found = true
		if m["request_id"] != reqID || m["trace_id"] != traceID {
			t.Fatalf("access log identity = %v/%v", m["request_id"], m["trace_id"])
		}
		for _, key := range []string{"time", "level", "component", "method", "path", "status", "bytes", "dur_ms", "remote", "span_id"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("access record lacks %q: %v", key, m)
			}
		}
	}
	if !found {
		t.Fatal("no access-log record for the submission")
	}
}
