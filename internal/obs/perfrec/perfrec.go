// Package perfrec defines the schema-versioned benchmark performance
// record (rsnsec.bench-record/v1) behind the repo's BENCH_*.json
// trajectory: per-benchmark × per-stage wall-time medians over N
// repetitions with MAD noise estimates, SAT decision/conflict totals,
// closure/propagation items-saved counters, runtime.MemStats peaks and
// an environment fingerprint. A validating reader and a noise-aware
// comparator (Compare) let CI gate every PR on recorded performance
// evidence: a delta only counts as a regression when it exceeds
// max(threshold·old, k·MAD, floor), so run-to-run jitter does not
// produce false alarms while real slowdowns cannot hide inside it.
//
// The record is produced by exp.CollectBenchRecord (per-stage timings
// from the engine stats, which record the same intervals as the stage
// trace spans) and written by
// `rsnbench -bench-out`; `rsnbench -baseline` and
// `rsnbench -compare-bench` apply the gate.
package perfrec

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// BenchSchema is the bench-record schema identifier. Bump the suffix on
// any incompatible field change; readers reject unknown versions so the
// regression gate never silently mis-parses an old baseline.
const BenchSchema = "rsnsec.bench-record/v1"

// Record is one machine-readable benchmark run: the noise-aware
// performance snapshot a PR commits as BENCH_<n>.json.
type Record struct {
	Schema string `json:"schema"`
	// Tool identifies the producer (e.g. "rsnbench").
	Tool string `json:"tool"`
	// CreatedAt is an optional RFC3339 wall-clock stamp; excluded from
	// Validate so records stay byte-comparable in tests.
	CreatedAt string `json:"created_at,omitempty"`
	// Reps is the number of repetitions each timing was sampled over.
	Reps int `json:"reps"`
	// Config echoes the protocol parameters the run used.
	Config Config `json:"config"`
	// Env fingerprints the machine the record was taken on; timing
	// comparisons across different fingerprints are advisory only.
	Env Environment `json:"env"`
	// Benchmarks holds one entry per measured benchmark.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Config echoes the experimental protocol parameters of the run.
type Config struct {
	Mode          string  `json:"mode"`
	Seed          int64   `json:"seed"`
	Circuits      int     `json:"circuits"`
	Specs         int     `json:"specs"`
	TargetScanFFs int     `json:"target_scan_ffs"`
	Scale         float64 `json:"scale"`
	Workers       int     `json:"workers"`
}

// Environment fingerprints the machine and build a record was taken
// on. Absolute wall times are only comparable between records whose
// fingerprints match; the comparator does not enforce this (CI runners
// differ), but renderers surface mismatches.
type Environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the first "model name" of /proc/cpuinfo (best effort;
	// empty where unavailable).
	CPUModel string `json:"cpu_model,omitempty"`
	// Commit is the VCS revision the record was taken at (stamped by
	// the CLI, e.g. from GITHUB_SHA).
	Commit string `json:"commit,omitempty"`
}

// CaptureEnvironment fingerprints the current process and machine.
func CaptureEnvironment(commit string) Environment {
	return Environment{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

// cpuModel reads the first CPU model name from /proc/cpuinfo (Linux);
// other platforms report "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// Matches reports whether two environments are timing-comparable: same
// platform, CPU model and parallelism.
func (e Environment) Matches(o Environment) bool {
	return e.GOOS == o.GOOS && e.GOARCH == o.GOARCH &&
		e.CPUModel == o.CPUModel && e.GOMAXPROCS == o.GOMAXPROCS
}

// Benchmark is one benchmark's measured record.
type Benchmark struct {
	Name string `json:"name"`
	// ScanFFs is the analyzed (scaled) structure size.
	ScanFFs int `json:"scan_ffs"`
	// Runs is the number of measured (circuit, spec) pairs per rep.
	Runs int `json:"runs"`
	// Stages holds the per-stage timing samples, in pipeline order.
	Stages []Stage `json:"stages"`
	// SAT totals per rep (medians over reps): solver effort counters of
	// the dependency computation.
	SATQueries   int64 `json:"sat_queries"`
	SATDecisions int64 `json:"sat_decisions"`
	SATConflicts int64 `json:"sat_conflicts"`
	// HeapAllocPeakBytes is the peak live heap observed during the
	// benchmark's reps (sampled runtime.MemStats, best effort).
	HeapAllocPeakBytes int64 `json:"heap_alloc_peak_bytes"`
	// TotalAllocBytes is the median per-rep allocation volume.
	TotalAllocBytes int64 `json:"total_alloc_bytes"`
	// Attack optionally records the attack-analysis annex of the run
	// (collected with rsnbench -attack-keybits). Absent in records
	// predating the obfuscation study; this reader accepts both forms,
	// so the v1 schema stays backward-compatible.
	Attack *AttackBench `json:"attack,omitempty"`
}

// AttackBench is one benchmark's attack-analysis measurements: the
// overlay shape it ran under, the per-stage wall-time distributions
// ("attack-sat", "attack-flush") and the attacks' effort counters
// (medians across reps).
type AttackBench struct {
	KeyBits int  `json:"key_bits"`
	Dynamic bool `json:"dynamic,omitempty"`
	// Stages holds the attack stages' timing samples, shaped exactly
	// like the benchmark's pipeline stages so the comparator gates them
	// with the same noise allowance.
	Stages []Stage `json:"stages"`
	// SATIterations and SATConflicts are the key recovery's refinement
	// and solver effort; FlushRank is the flush attack's achieved GF(2)
	// rank.
	SATIterations int64 `json:"sat_iterations"`
	SATConflicts  int64 `json:"sat_conflicts"`
	FlushRank     int64 `json:"flush_rank"`
}

// Stage is one pipeline stage's wall-time distribution over the reps,
// with the engine's items/saved counters (median across reps).
type Stage struct {
	Name string `json:"name"`
	// Reps is the number of samples behind the median (a stage absent
	// in some rep records fewer samples than the record's Reps).
	Reps int `json:"reps"`
	// MedianNS and MADNS summarize the per-rep cumulative wall time:
	// the median and the median absolute deviation (the noise scale the
	// comparator multiplies by k).
	MedianNS int64 `json:"median_ns"`
	MADNS    int64 `json:"mad_ns"`
	// SamplesNS optionally retains the raw per-rep samples; when
	// present, Validate recomputes the median/MAD from them.
	SamplesNS []int64 `json:"samples_ns,omitempty"`
	// Engine counters (median across reps).
	Calls   int64 `json:"calls"`
	Queries int64 `json:"queries"`
	Items   int64 `json:"items"`
	Saved   int64 `json:"saved"`
	// SimResolved and SATResolved split the stage's dependence
	// classifications by how they were resolved: witnessed by the
	// bit-parallel simulation prefilter vs. decided by a SAT cofactor
	// query. Optional (omitted when zero) so records predating the
	// prefilter stay valid and byte-stable under this reader.
	SimResolved int64 `json:"sim_resolved,omitempty"`
	SATResolved int64 `json:"sat_resolved,omitempty"`
}

// Median returns the median of xs (mean of the two middles for even
// lengths, integer division); 0 for an empty slice. xs is not mutated.
func Median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation of xs around its median —
// the robust noise scale of the regression gate. 0 for fewer than two
// samples.
func MAD(xs []int64) int64 {
	if len(xs) < 2 {
		return 0
	}
	med := Median(xs)
	dev := make([]int64, len(xs))
	for i, x := range xs {
		d := x - med
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	return Median(dev)
}

// NewStage summarizes per-rep samples into a Stage row (median, MAD,
// retained samples).
func NewStage(name string, samples []int64) Stage {
	return Stage{
		Name:      name,
		Reps:      len(samples),
		MedianNS:  Median(samples),
		MADNS:     MAD(samples),
		SamplesNS: append([]int64(nil), samples...),
	}
}

// Validate checks the record's structural invariants: schema version,
// positive rep counts, unique non-empty benchmark and stage names,
// non-negative counters, and medians/MADs consistent with retained
// samples.
func (r *Record) Validate() error {
	if r == nil {
		return fmt.Errorf("bench-record: nil")
	}
	if r.Schema != BenchSchema {
		return fmt.Errorf("bench-record: schema %q, this reader wants %q", r.Schema, BenchSchema)
	}
	if r.Tool == "" {
		return fmt.Errorf("bench-record: missing tool")
	}
	if r.Reps < 1 {
		return fmt.Errorf("bench-record: reps %d < 1", r.Reps)
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("bench-record: no benchmarks")
	}
	seen := make(map[string]bool)
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		if b.Name == "" {
			return fmt.Errorf("bench-record: benchmark %d: empty name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("bench-record: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		for _, c := range []struct {
			what string
			v    int64
		}{
			{"scan_ffs", int64(b.ScanFFs)}, {"runs", int64(b.Runs)},
			{"sat_queries", b.SATQueries}, {"sat_decisions", b.SATDecisions},
			{"sat_conflicts", b.SATConflicts},
			{"heap_alloc_peak_bytes", b.HeapAllocPeakBytes},
			{"total_alloc_bytes", b.TotalAllocBytes},
		} {
			if c.v < 0 {
				return fmt.Errorf("bench-record: benchmark %q: negative %s", b.Name, c.what)
			}
		}
		if err := validateStages(b.Name, b.Stages); err != nil {
			return err
		}
		if a := b.Attack; a != nil {
			if a.KeyBits < 1 {
				return fmt.Errorf("bench-record: benchmark %q: attack key_bits %d < 1", b.Name, a.KeyBits)
			}
			if a.SATIterations < 0 || a.SATConflicts < 0 || a.FlushRank < 0 {
				return fmt.Errorf("bench-record: benchmark %q: negative attack counter", b.Name)
			}
			if len(a.Stages) == 0 {
				return fmt.Errorf("bench-record: benchmark %q: attack annex without stages", b.Name)
			}
			if err := validateStages(b.Name+"/attack", a.Stages); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateStages checks one stage list (a benchmark's pipeline stages
// or its attack annex) for unique names, positive reps, non-negative
// counters and sample-consistent medians.
func validateStages(owner string, stages []Stage) error {
	seenStage := make(map[string]bool)
	for j := range stages {
		s := &stages[j]
		if s.Name == "" {
			return fmt.Errorf("bench-record: benchmark %q: stage %d: empty name", owner, j)
		}
		if seenStage[s.Name] {
			return fmt.Errorf("bench-record: benchmark %q: duplicate stage %q", owner, s.Name)
		}
		seenStage[s.Name] = true
		if s.Reps < 1 {
			return fmt.Errorf("bench-record: benchmark %q: stage %q: reps %d < 1", owner, s.Name, s.Reps)
		}
		if s.MedianNS < 0 || s.MADNS < 0 || s.Calls < 0 || s.Queries < 0 || s.Items < 0 || s.Saved < 0 ||
			s.SimResolved < 0 || s.SATResolved < 0 {
			return fmt.Errorf("bench-record: benchmark %q: stage %q: negative counter", owner, s.Name)
		}
		if len(s.SamplesNS) > 0 {
			if len(s.SamplesNS) != s.Reps {
				return fmt.Errorf("bench-record: benchmark %q: stage %q: %d samples for %d reps",
					owner, s.Name, len(s.SamplesNS), s.Reps)
			}
			if m := Median(s.SamplesNS); m != s.MedianNS {
				return fmt.Errorf("bench-record: benchmark %q: stage %q: median_ns %d inconsistent with samples (want %d)",
					owner, s.Name, s.MedianNS, m)
			}
			if m := MAD(s.SamplesNS); m != s.MADNS {
				return fmt.Errorf("bench-record: benchmark %q: stage %q: mad_ns %d inconsistent with samples (want %d)",
					owner, s.Name, s.MADNS, m)
			}
		}
	}
	return nil
}
