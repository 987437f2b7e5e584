package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rsnsec "repro"
)

// depLine returns the "dependency calculation:" line of an rsnsec run.
func depLine(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if strings.Contains(line, "dependency calculation:") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("no dependency calculation line in:\n%s", stdout)
	return ""
}

// TestRsnsecICLBenchMatchesBenchmark writes catalog networks with their
// attached circuits out as ICL + .bench and checks that -icl -bench
// analyzes the same design as -benchmark: the circuit flip-flops no
// link references are internal and get bridged, so the denoted
// flip-flops and dependencies agree.
func TestRsnsecICLBenchMatchesBenchmark(t *testing.T) {
	for _, name := range []string{"TreeFlat", "BasicSCB", "Mingle"} {
		t.Run(name, func(t *testing.T) {
			b, ok := rsnsec.BenchmarkByName(name)
			if !ok {
				t.Fatalf("no benchmark %s", name)
			}
			nw := b.Build(0.3)
			att := rsnsec.AttachCircuit(nw, rsnsec.DefaultCircuitConfig(), 1)
			spec := rsnsec.GenerateSpecWithRoles(len(nw.Modules), att.DataSources, rsnsec.DefaultSpecGenConfig(), 1)
			dir := t.TempDir()
			iclPath, benchPath := filepath.Join(dir, "net.icl"), filepath.Join(dir, "net.bench")
			var icl, bench strings.Builder
			ffName := func(ff rsnsec.FFID) string { return att.Circuit.FFs[ff].Name }
			if err := rsnsec.WriteICLWithSpec(&icl, nw, spec, ffName); err != nil {
				t.Fatal(err)
			}
			if err := rsnsec.WriteBench(&bench, att.Circuit); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(iclPath, []byte(icl.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(benchPath, []byte(bench.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			fromBench, _ := runCLI(t, "rsnsec", "-benchmark", name, "-scale", "0.3", "-seed", "1")
			fromICL, _ := runCLI(t, "rsnsec", "-icl", iclPath, "-bench", benchPath)
			if got, want := depLine(t, fromICL), depLine(t, fromBench); got != want {
				t.Errorf("-icl -bench: %q\n-benchmark:  %q", got, want)
			}
		})
	}
}

// TestRsnsecAttackServesDebugEndpoints checks that attack mode honours
// -debug-addr like the securing mode.
func TestRsnsecAttackServesDebugEndpoints(t *testing.T) {
	_, stderr := runCLI(t, "rsnsec", "-attack", "-benchmark", "TreeFlat", "-scale", "0.1",
		"-obf-keybits", "4", "-debug-addr", "127.0.0.1:0")
	if !strings.Contains(stderr, "debug endpoints up") {
		t.Errorf("rsnsec -attack -debug-addr logged no debug endpoints:\n%s", stderr)
	}
}

// TestValidateDocuments runs both -validate entry points over documents
// of different schemas: one stdout line each, nothing under -q, and an
// unknown schema refused.
func TestValidateDocuments(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	runCLI(t, "rsnbench", "-table", "main", "-benchmarks", "TreeFlat",
		"-circuits", "1", "-specs", "2", "-ffbudget", "60", "-q", "-report", report)
	attack, _ := runCLI(t, "rsnsec", "-attack", "-benchmark", "TreeFlat", "-scale", "0.1",
		"-obf-keybits", "4", "-q")
	attackPath := filepath.Join(dir, "attack.json")
	if err := os.WriteFile(attackPath, []byte(attack), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct{ path, schema string }{
		{report, "rsnsec.run-report/v1"},
		{attackPath, "rsnsec.attack-report/v1"},
	} {
		for _, tool := range []string{"rsnsec", "rsnbench"} {
			stdout, stderr := runCLI(t, tool, "-validate", doc.path)
			if want := doc.path + ": valid " + doc.schema + " ("; !strings.HasPrefix(stdout, want) ||
				strings.Count(stdout, "\n") != 1 || stderr != "" {
				t.Errorf("%s -validate %s: stdout %q stderr %q, want one line %q...", tool, doc.path, stdout, stderr, want)
			}
			if stdout, stderr := runCLI(t, tool, "-validate", doc.path, "-q"); stdout != "" || stderr != "" {
				t.Errorf("%s -validate -q: stdout %q stderr %q, want silence", tool, stdout, stderr)
			}
		}
	}
	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"schema":"rsnsec.nope/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(filepath.Join(binDir, "rsnsec"), "-validate", bogus).Run(); err == nil {
		t.Error("rsnsec -validate accepted an unknown schema")
	}
}

// TestRsnsecBuildsDependenciesOnce checks that one rsnsec run computes
// the dependency analysis once, whether it chooses a generated
// specification, explains violating flows, or reads an embedded one:
// the -v stats table shows one one-cycle call.
func TestRsnsecBuildsDependenciesOnce(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, "rsngen", "-scale-ff", "200", "-with-spec", "-out", dir, "-q")
	for _, args := range [][]string{
		{"-benchmark", "BasicSCB", "-scale", "0.3"},
		{"-benchmark", "BasicSCB", "-scale", "0.3", "-explain", "2"},
		{"-icl", filepath.Join(dir, "scale200.icl"), "-explain", "1"},
	} {
		_, stderr := runCLI(t, "rsnsec", append(args, "-v")...)
		calls := ""
		for _, line := range strings.Split(stderr, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "one-cycle" {
				calls = f[2]
			}
		}
		if calls != "1" {
			t.Errorf("rsnsec %v: one-cycle calls %q, want 1\n%s", args, calls, stderr)
		}
	}
}

// TestValidateDeltaReport checks that both -validate entry points
// accept the delta report rsnsec -delta -q prints.
func TestValidateDeltaReport(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "edit.json")
	if err := os.WriteFile(script, []byte(
		`{"ops":[{"op":"add-register","pin":"R0","src":"SI","name":"dx","len":1,"module":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, _ := runCLI(t, "rsnsec", "-benchmark", "TreeFlat", "-scale", "0.1", "-delta", script, "-q")
	path := filepath.Join(dir, "d.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"rsnsec", "rsnbench"} {
		stdout, _ := runCLI(t, tool, "-validate", path)
		if want := path + ": valid rsnsec.delta-report/v1 (1 script ops"; !strings.HasPrefix(stdout, want) {
			t.Errorf("%s -validate: %q, want prefix %q", tool, stdout, want)
		}
	}
}
