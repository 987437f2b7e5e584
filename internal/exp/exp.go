// Package exp drives the paper's experimental protocol (Section IV-A):
// for every benchmark it generates k random circuits and, per circuit,
// s random security specifications; runs the full secure-data-flow
// method on every (circuit, specification) pair where a violation
// occurs but the circuit logic itself is not insecure; and averages
// violating-register counts, applied changes (pure/hybrid/total) and
// per-stage runtimes — the columns of Table I. It also measures the
// bridging reductions of Section III-A and the structural
// over-approximation overheads of Section IV-C.
package exp

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// RunConfig parameterizes one experimental run.
type RunConfig struct {
	// Scale shrinks benchmark structures for bounded hardware; 1 is
	// full size (the paper's sizes). When 0, a per-benchmark scale is
	// derived from TargetScanFFs.
	Scale float64
	// TargetScanFFs is the per-benchmark scan flip-flop budget used
	// when Scale is 0: benchmarks below the budget run at full size,
	// larger ones are scaled down to roughly the budget.
	TargetScanFFs int
	// Circuits per benchmark (the paper uses 10).
	Circuits int
	// Specs per circuit (the paper uses 16 security requirements).
	Specs int
	// Mode selects exact or structurally over-approximated
	// dependencies.
	Mode dep.Mode
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Circuit generation parameters.
	Circuit bench.CircuitConfig
	// SpecGen parameterizes random specification generation.
	SpecGen secspec.GenConfig
	// Parallel bounds the number of circuits analyzed concurrently;
	// 0 uses GOMAXPROCS. Results are deterministic regardless: partial
	// sums are aggregated in circuit order.
	Parallel int
	// Workers bounds each circuit's inner SAT worker pool (the 1-cycle
	// dependency computation). 0 divides the CPUs evenly over the
	// concurrently analyzed circuits so the protocol never
	// oversubscribes the machine.
	Workers int
	// Progress, when non-nil, receives coarse progress lines (one per
	// analyzed circuit). It may be called from concurrent workers.
	Progress func(format string, args ...any)
	// Stats, when non-nil, accumulates race-safe per-stage engine
	// instrumentation across all circuits.
	Stats *engine.Stats
	// Tracer, when non-nil, receives hierarchical spans: one "circuit"
	// span per generated circuit (a child of TraceParent), with the
	// stage and query spans of its analyses nested underneath.
	Tracer *obs.Tracer
	// TraceParent is the enclosing span (typically the CLI's "run").
	TraceParent *obs.Span
}

// options derives the per-circuit pipeline configuration, dividing the
// CPU budget over outer circuit workers when Workers is unset.
func (cfg RunConfig) options(ctx context.Context, outer int) core.Options {
	workers := cfg.Workers
	if workers <= 0 && outer > 1 {
		if workers = runtime.NumCPU() / outer; workers < 1 {
			workers = 1
		}
	}
	return core.Options{Mode: cfg.Mode, Workers: workers, Context: ctx, Stats: cfg.Stats,
		Tracer: cfg.Tracer, TraceParent: cfg.TraceParent}
}

// DefaultRunConfig returns the scaled default protocol: the paper's
// 10 circuits × 16 specs at a structure scale suitable for a laptop.
// The 700 flip-flop budget is double the original default; it is
// affordable because the sparse SCC closure and incremental violation
// checking more than halve the resolution cost per run compared to
// the dense closure and from-scratch propagation at equal size (see
// bench_tables.txt for the recorded before/after protocol numbers).
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Scale:         0, // auto from TargetScanFFs
		TargetScanFFs: 700,
		Circuits:      10,
		Specs:         16,
		Mode:          dep.Exact,
		Seed:          1,
		Circuit:       bench.DefaultCircuitConfig(),
		SpecGen:       secspec.DefaultGenConfig(),
	}
}

// QuickRunConfig returns a fast smoke-test protocol (3 circuits × 4
// specs at a small scale) used by unit tests and -short benches.
func QuickRunConfig() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Circuits = 3
	cfg.Specs = 8
	cfg.TargetScanFFs = 120
	return cfg
}

// Result aggregates one benchmark's measured averages (one Table I
// row).
type Result struct {
	Benchmark bench.Benchmark
	// FullStats are the full-size structural counts (Table I columns
	// 2-4); ScaledStats the analyzed structure's counts.
	FullStats, ScaledStats rsn.Stats
	// Runs is the number of measured (circuit, spec) pairs;
	// SkippedNoViolation and SkippedInsecure count excluded pairs.
	Runs                 int
	SkippedNoViolation   int
	SkippedInsecureLogic int
	Errors               int
	// Averages over measured runs (Table I columns 5-8).
	AvgViolatingRegs float64
	AvgPureChanges   float64
	AvgHybridChanges float64
	AvgTotalChanges  float64
	// Average per-stage runtimes (Table I columns 9-12). Dependency
	// calculation happens once per circuit and is attributed to each of
	// its measured runs, as in the paper's accounting.
	AvgDepTime    time.Duration
	AvgPureTime   time.Duration
	AvgHybridTime time.Duration
	AvgTotalTime  time.Duration
}

// EffectiveScale resolves the scale for one benchmark: Scale when set,
// else the scale that brings it to TargetScanFFs.
func (cfg RunConfig) EffectiveScale(b bench.Benchmark) float64 {
	if cfg.Scale > 0 {
		return cfg.Scale
	}
	return b.ScaleForTarget(cfg.TargetScanFFs)
}

// benchSeed derives a per-benchmark base seed.
func benchSeed(base int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, name)
	return base ^ int64(h.Sum64())
}

// RunBenchmark executes the protocol for one benchmark.
func RunBenchmark(b bench.Benchmark, cfg RunConfig) (*Result, error) {
	return RunBenchmarkCtx(context.Background(), b, cfg)
}

// RunBenchmarkCtx is RunBenchmark with cancellation: the context is
// honored between SAT queries and (circuit, spec) pairs, and its error
// is returned when the run is cut short.
func RunBenchmarkCtx(ctx context.Context, b bench.Benchmark, cfg RunConfig) (*Result, error) {
	if cfg.Circuits <= 0 || cfg.Specs <= 0 {
		return nil, fmt.Errorf("exp: Circuits and Specs must be positive")
	}
	res := &Result{Benchmark: b}
	res.FullStats = rsn.Stats{Registers: b.Registers, ScanFFs: b.ScanFFs, Muxes: b.Muxes}
	base := benchSeed(cfg.Seed, b.Name)

	type circuitSums struct {
		runs, skipNoViol, skipInsecure, errors int
		stats                                  rsn.Stats
		sumViol, sumPure, sumHybrid            float64
		sumDep, sumPureT, sumHybT, sumTotalT   time.Duration
	}
	scale := cfg.EffectiveScale(b)
	perCircuit := make([]circuitSums, cfg.Circuits)

	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Circuits {
		workers = cfg.Circuits
	}
	opts := cfg.options(ctx, workers)

	runCircuit := func(c int) error {
		cs := &perCircuit[c]
		nw := b.Build(scale)
		cs.stats = nw.Stats()
		att := bench.AttachCircuit(nw, cfg.Circuit, base+int64(c)*7919)

		// One circuit span per unit of outer parallelism; the analysis
		// and per-spec resolution spans nest under it.
		cspan := cfg.Tracer.Start(cfg.TraceParent, "circuit",
			obs.Str("benchmark", b.Name), obs.Int("index", int64(c)),
			obs.Int("scan_ffs", int64(cs.stats.ScanFFs)))
		defer cspan.End()
		copts := opts
		copts.TraceParent = cspan

		// One analysis serves every specification of the circuit, so
		// its time is charged to each measured run, as in the paper.
		t0 := time.Now()
		an, err := hybrid.NewAnalysisOpts(nw, att.Circuit, att.Internal, nil, cfg.Mode, copts.EngineOptions())
		if err != nil {
			return err
		}
		depTime := time.Since(t0)

		for s := 0; s < cfg.Specs; s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, cfg.SpecGen, base+int64(c)*104729+int64(s)*31)
			a2 := an.WithSpec(spec)

			if len(a2.InsecureModulePairs()) > 0 {
				cs.skipInsecure++
				continue
			}
			run := nw.Clone()
			violBefore := len(a2.ViolatingRegisters(run))
			if violBefore == 0 {
				cs.skipNoViol++
				continue
			}

			rep, err := core.Resolve(a2, run, copts)
			if err != nil {
				cs.errors++
				continue
			}
			cs.runs++
			cs.sumViol += float64(violBefore)
			cs.sumPure += float64(rep.PureChanges)
			cs.sumHybrid += float64(rep.HybridChanges)
			cs.sumDep += depTime
			cs.sumPureT += rep.Times.PureStage
			cs.sumHybT += rep.Times.HybridStage
			cs.sumTotalT += depTime + rep.Times.PureStage + rep.Times.HybridStage
		}
		cspan.SetAttrs(obs.Int("runs", int64(cs.runs)),
			obs.Int("dep_calc_us", depTime.Microseconds()))
		if cfg.Progress != nil {
			cfg.Progress("%s: circuit %d/%d done (%d runs, dep calc %s)",
				b.Name, c+1, cfg.Circuits, cs.runs, depTime.Round(time.Millisecond))
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if ctx.Err() != nil {
					continue // drain remaining jobs after cancellation
				}
				if err := runCircuit(c); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for c := 0; c < cfg.Circuits; c++ {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	var (
		sumViol, sumPure, sumHybrid          float64
		sumDep, sumPureT, sumHybT, sumTotalT time.Duration
	)
	res.ScaledStats = perCircuit[0].stats
	for c := range perCircuit {
		cs := &perCircuit[c]
		res.Runs += cs.runs
		res.SkippedNoViolation += cs.skipNoViol
		res.SkippedInsecureLogic += cs.skipInsecure
		res.Errors += cs.errors
		sumViol += cs.sumViol
		sumPure += cs.sumPure
		sumHybrid += cs.sumHybrid
		sumDep += cs.sumDep
		sumPureT += cs.sumPureT
		sumHybT += cs.sumHybT
		sumTotalT += cs.sumTotalT
	}
	if res.Runs > 0 {
		n := float64(res.Runs)
		res.AvgViolatingRegs = sumViol / n
		res.AvgPureChanges = sumPure / n
		res.AvgHybridChanges = sumHybrid / n
		res.AvgTotalChanges = (sumPure + sumHybrid) / n
		res.AvgDepTime = sumDep / time.Duration(res.Runs)
		res.AvgPureTime = sumPureT / time.Duration(res.Runs)
		res.AvgHybridTime = sumHybT / time.Duration(res.Runs)
		res.AvgTotalTime = sumTotalT / time.Duration(res.Runs)
	}
	return res, nil
}

// BuildReport assembles the schema-versioned machine-readable run
// report from the measured benchmark results and the engine's
// per-stage instrumentation — the data behind the rendered Table I and
// the bench_tables.txt trajectory. stats may be nil (the stage section
// is then empty). The caller stamps RunReport.StartedAt if wall-clock
// provenance is wanted; BuildReport leaves it empty so reports of
// identical runs stay byte-comparable.
func BuildReport(tool, table string, cfg RunConfig, results []*Result, stats *engine.Stats) *obs.RunReport {
	r := &obs.RunReport{
		Schema: obs.ReportSchema,
		Tool:   tool,
		Config: obs.ReportConfig{
			Table:         table,
			Mode:          fmt.Sprint(cfg.Mode),
			Seed:          cfg.Seed,
			Circuits:      cfg.Circuits,
			Specs:         cfg.Specs,
			TargetScanFFs: cfg.TargetScanFFs,
			Scale:         cfg.Scale,
			Workers:       cfg.Workers,
		},
		Benchmarks: make([]obs.BenchmarkReport, 0, len(results)),
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		r.Benchmarks = append(r.Benchmarks, obs.BenchmarkReport{
			Name:   res.Benchmark.Name,
			Family: res.Benchmark.Family.String(),

			Registers: res.ScaledStats.Registers,
			ScanFFs:   res.ScaledStats.ScanFFs,
			Muxes:     res.ScaledStats.Muxes,

			FullRegisters: res.FullStats.Registers,
			FullScanFFs:   res.FullStats.ScanFFs,
			FullMuxes:     res.FullStats.Muxes,

			Runs:                 res.Runs,
			SkippedSecure:        res.SkippedNoViolation,
			SkippedInsecureLogic: res.SkippedInsecureLogic,
			Errors:               res.Errors,

			AvgViolatingRegs: res.AvgViolatingRegs,
			AvgPureChanges:   res.AvgPureChanges,
			AvgHybridChanges: res.AvgHybridChanges,
			AvgTotalChanges:  res.AvgTotalChanges,

			AvgDepNS:    int64(res.AvgDepTime),
			AvgPureNS:   int64(res.AvgPureTime),
			AvgHybridNS: int64(res.AvgHybridTime),
			AvgTotalNS:  int64(res.AvgTotalTime),
		})
	}
	r.Stages = stats.StageReports()
	r.ComputeTotals()
	return r
}

// BridgingResult measures experiment E4: the reductions achieved by
// bridging over internal flip-flops (the paper reports −41.72% denoted
// flip-flops and −65.37% denoted dependencies on average).
type BridgingResult struct {
	Benchmark    bench.Benchmark
	FFsTotal     int // denoted flip-flops without bridging
	FFsBridged   int // denoted flip-flops with bridging
	DepsNoBridge int // multi-cycle dependencies without bridging
	DepsBridge   int // multi-cycle dependencies with bridging
}

// FFReduction returns the fractional reduction in denoted flip-flops.
func (r BridgingResult) FFReduction() float64 {
	if r.FFsTotal == 0 {
		return 0
	}
	return 1 - float64(r.FFsBridged)/float64(r.FFsTotal)
}

// DepReduction returns the fractional reduction in denoted
// dependencies.
func (r BridgingResult) DepReduction() float64 {
	if r.DepsNoBridge == 0 {
		return 0
	}
	return 1 - float64(r.DepsBridge)/float64(r.DepsNoBridge)
}

// RunBridging computes the bridging reductions for one benchmark by
// running the dependency census with and without bridging on the same
// generated circuit.
func RunBridging(b bench.Benchmark, cfg RunConfig) (*BridgingResult, error) {
	return RunBridgingCtx(context.Background(), b, cfg)
}

// RunBridgingCtx is RunBridging with cancellation.
func RunBridgingCtx(ctx context.Context, b bench.Benchmark, cfg RunConfig) (*BridgingResult, error) {
	eng := cfg.options(ctx, 1).EngineOptions()
	nw := b.Build(cfg.EffectiveScale(b))
	att := bench.AttachCircuit(nw, cfg.Circuit, benchSeed(cfg.Seed, b.Name))
	with, err := hybrid.NewCensus(nw, att.Circuit, att.Internal, cfg.Mode, eng)
	if err != nil {
		return nil, err
	}
	without, err := hybrid.NewCensus(nw, att.Circuit, nil, cfg.Mode, eng)
	if err != nil {
		return nil, err
	}
	return &BridgingResult{
		Benchmark:    b,
		FFsTotal:     without.Stats.FFsDenoted,
		FFsBridged:   with.Stats.FFsDenoted,
		DepsNoBridge: without.DepsMultiCycle,
		DepsBridge:   with.DepsMultiCycle,
	}, nil
}

// ApproxResult measures experiment E5: the cost of over-approximating
// path-dependency with structural dependency (Section IV-C: +61%
// applied changes on average; 6.21% of runs falsely classify the
// circuit logic as insecure).
type ApproxResult struct {
	Benchmark bench.Benchmark
	// Runs measured under both modes.
	Runs int
	// ExactChanges and ApproxChanges are total applied changes summed
	// over common runs.
	ExactChanges, ApproxChanges float64
	// FalseInsecure counts runs the approximation classified as
	// insecure circuit logic although exact analysis did not.
	FalseInsecure int
	// TotalSpecRuns counts all (circuit, spec) pairs examined.
	TotalSpecRuns int
}

// ChangeOverhead returns the relative increase in applied changes.
func (r ApproxResult) ChangeOverhead() float64 {
	if r.ExactChanges == 0 {
		return 0
	}
	return r.ApproxChanges/r.ExactChanges - 1
}

// FalseInsecureRate returns the fraction of examined pairs falsely
// classified insecure.
func (r ApproxResult) FalseInsecureRate() float64 {
	if r.TotalSpecRuns == 0 {
		return 0
	}
	return float64(r.FalseInsecure) / float64(r.TotalSpecRuns)
}

// RunApprox executes the IV-C comparison for one benchmark: the same
// circuits and specifications under exact and structural dependencies.
func RunApprox(b bench.Benchmark, cfg RunConfig) (*ApproxResult, error) {
	return RunApproxCtx(context.Background(), b, cfg)
}

// RunApproxCtx is RunApprox with cancellation.
func RunApproxCtx(ctx context.Context, b bench.Benchmark, cfg RunConfig) (*ApproxResult, error) {
	res := &ApproxResult{Benchmark: b}
	base := benchSeed(cfg.Seed, b.Name)
	scale := cfg.EffectiveScale(b)
	opts := cfg.options(ctx, 1)
	eng := opts.EngineOptions()
	for c := 0; c < cfg.Circuits; c++ {
		nw := b.Build(scale)
		att := bench.AttachCircuit(nw, cfg.Circuit, base+int64(c)*7919)
		exact, err := hybrid.NewAnalysisOpts(nw, att.Circuit, att.Internal, nil, dep.Exact, eng)
		if err != nil {
			return nil, err
		}
		approx, err := hybrid.NewAnalysisOpts(nw, att.Circuit, att.Internal, nil, dep.StructuralApprox, eng)
		if err != nil {
			return nil, err
		}
		for s := 0; s < cfg.Specs; s++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, cfg.SpecGen, base+int64(c)*104729+int64(s)*31)
			res.TotalSpecRuns++
			ea := exact.WithSpec(spec)
			aa := approx.WithSpec(spec)
			exactInsecure := len(ea.InsecureModulePairs()) > 0
			approxInsecure := len(aa.InsecureModulePairs()) > 0
			if !exactInsecure && approxInsecure {
				res.FalseInsecure++
			}
			if exactInsecure || approxInsecure {
				continue
			}
			if len(ea.ViolatingRegisters(nw)) == 0 && len(aa.ViolatingRegisters(nw)) == 0 {
				continue
			}
			exactRep, err := core.Resolve(ea, nw.Clone(), opts)
			if err != nil {
				continue
			}
			approxRep, err := core.Resolve(aa, nw.Clone(), opts)
			if err != nil {
				continue
			}
			res.Runs++
			res.ExactChanges += float64(exactRep.TotalChanges())
			res.ApproxChanges += float64(approxRep.TotalChanges())
		}
	}
	return res, nil
}
