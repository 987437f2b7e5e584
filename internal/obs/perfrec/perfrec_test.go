package perfrec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sample builds a minimal valid record with one benchmark and the
// given closure-stage samples.
func sample(closureNS ...int64) *Record {
	return &Record{
		Schema: BenchSchema,
		Tool:   "test",
		Reps:   len(closureNS),
		Config: Config{Mode: "exact", Seed: 1, Circuits: 2, Specs: 4, TargetScanFFs: 80},
		Env:    CaptureEnvironment("deadbeef"),
		Benchmarks: []Benchmark{{
			Name:    "TreeFlat",
			ScanFFs: 60,
			Runs:    5,
			Stages: []Stage{
				NewStage("closure", closureNS),
				NewStage("one-cycle", samplesTimes(closureNS, 3)),
			},
			SATQueries:         100,
			SATDecisions:       2000,
			SATConflicts:       50,
			HeapAllocPeakBytes: 64 << 20,
			TotalAllocBytes:    128 << 20,
		}},
	}
}

func samplesTimes(xs []int64, k int64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func TestMedianAndMAD(t *testing.T) {
	cases := []struct {
		xs       []int64
		med, mad int64
	}{
		{nil, 0, 0},
		{[]int64{7}, 7, 0},
		{[]int64{1, 3}, 2, 1},
		{[]int64{5, 1, 9}, 5, 4},
		{[]int64{10, 12, 11, 100}, 11, 1}, // outlier-robust: deviations 1,1,0,89 → median 1
	}
	for _, c := range cases {
		if m := Median(c.xs); m != c.med {
			t.Errorf("Median(%v) = %d, want %d", c.xs, m, c.med)
		}
		if m := MAD(c.xs); m != c.mad {
			t.Errorf("MAD(%v) = %d, want %d", c.xs, m, c.mad)
		}
	}
	// Median must not mutate its input.
	xs := []int64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sample(10_000_000, 11_000_000, 10_500_000)
	r.CreatedAt = "2026-08-06T00:00:00Z"
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadDoc[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks[0].Stages[0].MedianNS != 10_500_000 {
		t.Errorf("median = %d after round trip", got.Benchmarks[0].Stages[0].MedianNS)
	}
	if got.Env.GoVersion == "" || got.Env.GOMAXPROCS < 1 {
		t.Errorf("environment fingerprint lost: %+v", got.Env)
	}
}

// TestSimSATSplitOptional pins the backward compatibility of the
// resolution-path split: zero values serialize to nothing (so records
// written before the prefilter stay byte-identical), and old JSON
// without the fields reads back as zeroes.
func TestSimSATSplitOptional(t *testing.T) {
	r := sample(10, 20, 30)
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, r); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "sim_resolved") || strings.Contains(s, "sat_resolved") {
		t.Fatalf("zero split fields serialized:\n%s", s)
	}
	got, err := obs.ReadDoc[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := got.Benchmarks[0].Stages[0]
	if st.SimResolved != 0 || st.SATResolved != 0 {
		t.Fatalf("absent split fields read as %d/%d", st.SimResolved, st.SATResolved)
	}
	// Non-zero values survive a round trip.
	r.Benchmarks[0].Stages[0].SimResolved = 730
	r.Benchmarks[0].Stages[0].SATResolved = 87
	buf.Reset()
	if err := obs.WriteDoc(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err = obs.ReadDoc[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	st = got.Benchmarks[0].Stages[0]
	if st.SimResolved != 730 || st.SATResolved != 87 {
		t.Fatalf("split fields lost in round trip: %d/%d", st.SimResolved, st.SATResolved)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Record)
		want   string
	}{
		{"wrong schema", func(r *Record) { r.Schema = "rsnsec.bench-record/v0" }, "schema"},
		{"missing tool", func(r *Record) { r.Tool = "" }, "missing tool"},
		{"zero reps", func(r *Record) { r.Reps = 0 }, "reps"},
		{"no benchmarks", func(r *Record) { r.Benchmarks = nil }, "no benchmarks"},
		{"empty benchmark name", func(r *Record) { r.Benchmarks[0].Name = "" }, "empty name"},
		{"duplicate benchmark", func(r *Record) {
			r.Benchmarks = append(r.Benchmarks, r.Benchmarks[0])
		}, "duplicate benchmark"},
		{"duplicate stage", func(r *Record) {
			b := &r.Benchmarks[0]
			b.Stages[1] = b.Stages[0]
		}, "duplicate stage"},
		{"negative counter", func(r *Record) { r.Benchmarks[0].SATDecisions = -1 }, "negative"},
		{"negative stage counter", func(r *Record) { r.Benchmarks[0].Stages[0].Items = -1 }, "negative"},
		{"sample count mismatch", func(r *Record) {
			r.Benchmarks[0].Stages[0].SamplesNS = []int64{1}
		}, "samples"},
		{"median inconsistent", func(r *Record) { r.Benchmarks[0].Stages[0].MedianNS++ }, "median_ns"},
		{"mad inconsistent", func(r *Record) { r.Benchmarks[0].Stages[0].MADNS++ }, "mad_ns"},
		{"negative sim split", func(r *Record) { r.Benchmarks[0].Stages[0].SimResolved = -1 }, "negative"},
		{"negative sat split", func(r *Record) { r.Benchmarks[0].Stages[0].SATResolved = -1 }, "negative"},
	}
	for _, c := range cases {
		r := sample(10, 20, 30)
		c.mutate(r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the record", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if err := sample(10, 20, 30).Validate(); err != nil {
		t.Errorf("unmutated record rejected: %v", err)
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	r := sample(10_000_000, 11_000_000, 10_500_000)
	if regs := Compare(r, r, Limits{}); len(regs) != 0 {
		t.Fatalf("self-comparison flagged %d regressions: %v", len(regs), regs)
	}
}

func TestCompareFlagsSyntheticRegression(t *testing.T) {
	old := sample(10_000_000, 11_000_000, 10_500_000)
	slow := sample(100_000_000, 110_000_000, 105_000_000) // 10x on every stage
	regs := Compare(old, slow, Limits{})
	if len(regs) != 2 {
		t.Fatalf("want 2 stage regressions, got %d: %s", len(regs), FormatRegressions(regs))
	}
	// Ordered by relative increase (equal here) then path.
	if regs[0].Path != "TreeFlat/closure/median_ns" || regs[1].Path != "TreeFlat/one-cycle/median_ns" {
		t.Errorf("unexpected order: %v", regs)
	}
	if regs[0].Old != 10_500_000 || regs[0].New != 105_000_000 {
		t.Errorf("regression values: %+v", regs[0])
	}
	if p := regs[0].Pct(); p < 8.9 || p > 9.1 {
		t.Errorf("Pct = %v, want ~9 (+900%%)", p)
	}
	if !strings.Contains(regs[0].String(), "+900.0%") {
		t.Errorf("String lacks signed percent: %s", regs[0])
	}
}

func TestCompareNoiseAllowance(t *testing.T) {
	// Old record is noisy: MAD 2ms around a 10ms median. A 5ms slowdown
	// is within 4·MAD and must not flag; a 20ms slowdown must.
	old := sample(8_000_000, 10_000_000, 12_000_000) // median 10ms, MAD 2ms
	within := sample(13_000_000, 15_000_000, 17_000_000)
	if regs := Compare(old, within, Limits{}); len(regs) != 0 {
		t.Fatalf("delta inside k·MAD flagged: %s", FormatRegressions(regs))
	}
	beyond := sample(28_000_000, 30_000_000, 32_000_000)
	if regs := Compare(old, beyond, Limits{}); len(regs) == 0 {
		t.Fatal("delta beyond k·MAD not flagged")
	}
}

func TestCompareAbsoluteFloor(t *testing.T) {
	// Microsecond stages may jitter by whole multiples: below MinNS
	// nothing flags even at +300%.
	old := sample(100_000, 100_000, 100_000)
	slow := sample(400_000, 400_000, 400_000)
	if regs := Compare(old, slow, Limits{}); len(regs) != 0 {
		t.Fatalf("sub-floor stage flagged: %s", FormatRegressions(regs))
	}
	// Tightening the floor exposes it.
	if regs := Compare(old, slow, Limits{MinNS: 10_000}); len(regs) != 2 {
		t.Fatalf("want 2 regressions under a 10µs floor, got %d", len(regs))
	}
}

func TestCompareMemoryGate(t *testing.T) {
	old := sample(10_000_000, 10_000_000, 10_000_000)
	bloat := sample(10_000_000, 10_000_000, 10_000_000)
	bloat.Benchmarks[0].HeapAllocPeakBytes = old.Benchmarks[0].HeapAllocPeakBytes * 3
	regs := Compare(old, bloat, Limits{})
	if len(regs) != 1 || regs[0].Path != "TreeFlat/heap_alloc_peak_bytes" {
		t.Fatalf("want one heap-peak regression, got %s", FormatRegressions(regs))
	}
	if regs := Compare(old, bloat, Limits{MemPct: NoMemGate}); len(regs) != 0 {
		t.Fatalf("NoMemGate still flagged: %s", FormatRegressions(regs))
	}
}

func TestCompareSkipsDisjointRows(t *testing.T) {
	old := sample(10_000_000, 10_000_000, 10_000_000)
	new := sample(100_000_000, 100_000_000, 100_000_000)
	new.Benchmarks[0].Name = "OtherBench" // no common benchmark
	if regs := Compare(old, new, Limits{}); len(regs) != 0 {
		t.Fatalf("disjoint benchmarks compared: %s", FormatRegressions(regs))
	}
	// A stage only present in the new record is skipped too.
	new2 := sample(100_000_000, 100_000_000, 100_000_000)
	new2.Benchmarks[0].Stages[0].Name = "brand-new-stage"
	regs := Compare(old, new2, Limits{})
	for _, r := range regs {
		if strings.Contains(r.Path, "brand-new-stage") {
			t.Fatalf("new-only stage compared: %s", r)
		}
	}
}

func TestCompareImprovementNeverFlags(t *testing.T) {
	old := sample(100_000_000, 100_000_000, 100_000_000)
	fast := sample(10_000_000, 10_000_000, 10_000_000)
	if regs := Compare(old, fast, Limits{}); len(regs) != 0 {
		t.Fatalf("improvement flagged: %s", FormatRegressions(regs))
	}
}

func TestFormatRegressionsClean(t *testing.T) {
	if s := FormatRegressions(nil); s != "performance gate clean" {
		t.Errorf("clean format = %q", s)
	}
}

func TestEnvironmentMatches(t *testing.T) {
	a := CaptureEnvironment("x")
	b := a
	if !a.Matches(b) {
		t.Error("identical environments do not match")
	}
	b.GOMAXPROCS++
	if a.Matches(b) {
		t.Error("different GOMAXPROCS matches")
	}
}

// withAttack attaches an attack annex with the given attack-sat
// samples to the record's benchmark.
func withAttack(r *Record, satNS ...int64) *Record {
	r.Benchmarks[0].Attack = &AttackBench{
		KeyBits: 8,
		Stages: []Stage{
			NewStage("attack-sat", satNS),
			NewStage("attack-flush", samplesTimes(satNS, 2)),
		},
		SATIterations: 5,
		SATConflicts:  40,
		FlushRank:     4,
	}
	return r
}

func TestAttackAnnexRoundTripAndOptional(t *testing.T) {
	// Without the annex (a record predating the obfuscation study) the
	// record stays valid and the field stays absent from the encoding.
	plain := sample(10_000_000, 11_000_000, 10_500_000)
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"attack"`) {
		t.Fatal("attack key serialized for a record without the annex")
	}
	// With the annex it round-trips.
	r := withAttack(sample(10_000_000, 11_000_000, 10_500_000), 5_000_000, 5_100_000, 5_050_000)
	buf.Reset()
	if err := obs.WriteDoc(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadDoc[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := got.Benchmarks[0].Attack
	if a == nil || a.KeyBits != 8 || len(a.Stages) != 2 || a.SATIterations != 5 {
		t.Fatalf("attack annex did not round-trip: %+v", a)
	}
}

func TestAttackAnnexValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"zero key bits", func(r *Record) { r.Benchmarks[0].Attack.KeyBits = 0 }},
		{"no stages", func(r *Record) { r.Benchmarks[0].Attack.Stages = nil }},
		{"negative counter", func(r *Record) { r.Benchmarks[0].Attack.SATConflicts = -1 }},
		{"duplicate stage", func(r *Record) {
			a := r.Benchmarks[0].Attack
			a.Stages = append(a.Stages, a.Stages[0])
		}},
		{"inconsistent median", func(r *Record) { r.Benchmarks[0].Attack.Stages[0].MedianNS++ }},
	}
	for _, c := range cases {
		r := withAttack(sample(10_000_000), 5_000_000)
		c.mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestCompareGatesAttackStages(t *testing.T) {
	old := withAttack(sample(10_000_000, 10_000_000, 10_000_000), 5_000_000, 5_000_000, 5_000_000)
	new := withAttack(sample(10_000_000, 10_000_000, 10_000_000), 9_000_000, 9_000_000, 9_000_000)
	regs := Compare(old, new, Limits{})
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2 (attack-sat and attack-flush):\n%s",
			len(regs), FormatRegressions(regs))
	}
	for _, r := range regs {
		if !strings.HasPrefix(r.Path, "TreeFlat/attack/") {
			t.Errorf("unexpected regression path %q", r.Path)
		}
	}
	// An annex present on only one side is skipped, not flagged.
	noAnnex := sample(10_000_000, 10_000_000, 10_000_000)
	if regs := Compare(noAnnex, new, Limits{}); len(regs) != 0 {
		t.Fatalf("one-sided annex flagged: %s", FormatRegressions(regs))
	}
}
