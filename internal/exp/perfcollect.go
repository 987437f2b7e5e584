package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/obs/perfrec"
)

// CollectOptions parameterizes bench-record collection.
type CollectOptions struct {
	// Reps is the number of repetitions each benchmark is measured
	// over (medians and MADs are taken across reps); <= 0 uses 3.
	Reps int
	// Tool stamps the record's producer; "" uses "rsnbench".
	Tool string
	// Commit stamps the environment fingerprint's VCS revision.
	Commit string
	// Progress, when non-nil, receives one line per finished rep.
	Progress func(format string, args ...any)
	// AttackKeyBits, when positive, additionally measures the attack
	// analysis each rep: the benchmark's network (at the protocol's
	// effective scale) is obfuscated with that many key bits seeded by
	// the run seed, both attacks run against it, and the timings land
	// in the record's optional per-benchmark Attack annex.
	// AttackDynamic selects the LFSR key schedule.
	AttackKeyBits int
	AttackDynamic bool
}

func (o CollectOptions) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	return 3
}

// repSample is one repetition's measurements for one benchmark.
type repSample struct {
	snap       []engine.StageSnapshot
	satQ       int64
	satD       int64
	satC       int64
	simR       int64
	heapPeak   int64
	totalAlloc int64
	runs       int
	scanFFs    int
	atk        *attackRepSample
}

// attackRepSample is one repetition's attack-analysis measurements.
type attackRepSample struct {
	satNS   int64
	flushNS int64
	iters   int64
	confl   int64
	rank    int64
}

// CollectBenchRecord measures the Table I protocol Reps times per
// benchmark and assembles the schema-versioned bench record: per-stage
// wall-time medians with MAD noise estimates, SAT decision/conflict
// totals, items/saved counters, runtime.MemStats peaks and the
// environment fingerprint.
//
// Per-stage wall times come from the engine stats, which every stage
// feeds the same interval its trace span covers (engine.Stage). They
// are cumulative across the protocol's concurrent circuit workers, so
// a stage's wall time is total time spent in the stage, which can
// exceed the rep's elapsed wall clock. Memory peaks are sampled
// best-effort at ~10ms granularity.
func CollectBenchRecord(ctx context.Context, benchmarks []bench.Benchmark, cfg RunConfig, opts CollectOptions) (*perfrec.Record, error) {
	reps := opts.reps()
	tool := opts.Tool
	if tool == "" {
		tool = "rsnbench"
	}
	rec := &perfrec.Record{
		Schema: perfrec.BenchSchema,
		Tool:   tool,
		Reps:   reps,
		Config: perfrec.Config{
			Mode:          fmt.Sprint(cfg.Mode),
			Seed:          cfg.Seed,
			Circuits:      cfg.Circuits,
			Specs:         cfg.Specs,
			TargetScanFFs: cfg.TargetScanFFs,
			Scale:         cfg.Scale,
			Workers:       cfg.Workers,
		},
		Env: perfrec.CaptureEnvironment(opts.Commit),
	}
	for _, b := range benchmarks {
		samples := make([]repSample, 0, reps)
		for rep := 0; rep < reps; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s, err := collectRep(ctx, b, cfg, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: rep %d: %w", b.Name, rep+1, err)
			}
			samples = append(samples, *s)
			if opts.Progress != nil {
				opts.Progress("%s: rep %d/%d done (%d runs)", b.Name, rep+1, reps, s.runs)
			}
		}
		rec.Benchmarks = append(rec.Benchmarks, assemble(b.Name, samples, opts))
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("collected record invalid: %w", err)
	}
	return rec, nil
}

// collectRep runs one repetition of the protocol for one benchmark
// under private instrumentation.
func collectRep(ctx context.Context, b bench.Benchmark, cfg RunConfig, opts CollectOptions) (*repSample, error) {
	reg := obs.NewRegistry()
	stats := engine.NewStatsOn(reg)
	cfg.Stats = stats
	cfg.Tracer = nil
	cfg.TraceParent = nil
	cfg.Progress = nil

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peakC := make(chan int64, 1)
	stop := make(chan struct{})
	go sampleHeapPeak(stop, peakC)

	results, err := RunProtocol(ctx, []bench.Benchmark{b}, cfg, nil)
	close(stop)
	peak := <-peakC
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	res := results[0]

	s := &repSample{
		snap:    stats.Snapshot(),
		satQ:    reg.Counter("dep_sat_queries_total").Value(),
		satD:    reg.Counter("dep_sat_decisions_total").Value(),
		satC:    reg.Counter("dep_sat_conflicts_total").Value(),
		simR:    reg.Counter("dep_sim_resolved_total").Value(),
		runs:    res.Runs,
		scanFFs: res.ScaledStats.ScanFFs,
	}
	if hp := int64(m1.HeapAlloc); hp > peak {
		peak = hp
	}
	s.heapPeak = peak
	s.totalAlloc = int64(m1.TotalAlloc - m0.TotalAlloc)
	if opts.AttackKeyBits > 0 {
		atk, err := collectAttackRep(ctx, b, cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("attack: %w", err)
		}
		s.atk = atk
	}
	return s, nil
}

// collectAttackRep runs the attack analysis once against the
// benchmark's obfuscated network (at the protocol's effective scale)
// and samples its timings and effort counters. The attack stages stay
// out of the rep's engine instrumentation so they land only in the
// record's Attack annex, not among the pipeline stages.
func collectAttackRep(ctx context.Context, b bench.Benchmark, cfg RunConfig, opts CollectOptions) (*attackRepSample, error) {
	nw := b.Build(cfg.EffectiveScale(b))
	ov, key, err := obfus.ObfuscateNetwork(nw, obfus.GenConfig{
		KeyBits: opts.AttackKeyBits, MuxShare: -1, Dynamic: opts.AttackDynamic,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep, err := RunAttackAnalysis(ctx, "rsnbench", nw, ov, key, AttackOptions{IncludeTimings: true})
	if err != nil {
		return nil, err
	}
	atk := &attackRepSample{}
	if sat := rep.SAT; sat != nil {
		atk.satNS = sat.TimeNS
		atk.iters = int64(sat.Iterations)
		atk.confl = sat.Conflicts
	}
	if fl := rep.Flush; fl != nil {
		atk.flushNS = fl.TimeNS
		atk.rank = int64(fl.Rank)
	}
	return atk, nil
}

// sampleHeapPeak polls runtime.MemStats until stop closes and sends
// the peak observed HeapAlloc.
func sampleHeapPeak(stop <-chan struct{}, out chan<- int64) {
	var peak int64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var m runtime.MemStats
	for {
		select {
		case <-stop:
			out <- peak
			return
		case <-tick.C:
			runtime.ReadMemStats(&m)
			if h := int64(m.HeapAlloc); h > peak {
				peak = h
			}
		}
	}
}

// assemble folds the per-rep samples of one benchmark into its record
// row: stage order follows the engine's deterministic pipeline order,
// stage walls and counters are medians across reps, and the heap peak
// is the maximum over reps.
func assemble(name string, samples []repSample, opts CollectOptions) perfrec.Benchmark {
	first := samples[0]
	b := perfrec.Benchmark{
		Name:    name,
		ScanFFs: first.scanFFs,
		Runs:    first.runs,
	}
	var satQ, satD, satC, alloc []int64
	for i := range samples {
		s := &samples[i]
		satQ = append(satQ, s.satQ)
		satD = append(satD, s.satD)
		satC = append(satC, s.satC)
		alloc = append(alloc, s.totalAlloc)
		if s.heapPeak > b.HeapAllocPeakBytes {
			b.HeapAllocPeakBytes = s.heapPeak
		}
	}
	b.SATQueries = perfrec.Median(satQ)
	b.SATDecisions = perfrec.Median(satD)
	b.SATConflicts = perfrec.Median(satC)
	b.TotalAllocBytes = perfrec.Median(alloc)

	for _, st := range first.snap {
		var wall, calls, queries, items, saved []int64
		for i := range samples {
			s := &samples[i]
			c := snapshotOf(s.snap, st.Name)
			wall = append(wall, int64(c.Wall))
			calls = append(calls, c.Calls)
			queries = append(queries, c.Queries)
			items = append(items, c.Items)
			saved = append(saved, c.Saved)
		}
		stage := perfrec.NewStage(st.Name, wall)
		stage.Calls = perfrec.Median(calls)
		stage.Queries = perfrec.Median(queries)
		stage.Items = perfrec.Median(items)
		stage.Saved = perfrec.Median(saved)
		if st.Name == "one-cycle" {
			// Split the stage's leaf classifications by resolution path:
			// prefilter-witnessed vs. decided by a SAT cofactor query.
			var simR, satQ []int64
			for i := range samples {
				simR = append(simR, samples[i].simR)
				satQ = append(satQ, samples[i].satQ)
			}
			stage.SimResolved = perfrec.Median(simR)
			stage.SATResolved = perfrec.Median(satQ)
		}
		b.Stages = append(b.Stages, stage)
	}
	if first.atk != nil {
		var satNS, flushNS, iters, confl, rank []int64
		for i := range samples {
			a := samples[i].atk
			satNS = append(satNS, a.satNS)
			flushNS = append(flushNS, a.flushNS)
			iters = append(iters, a.iters)
			confl = append(confl, a.confl)
			rank = append(rank, a.rank)
		}
		b.Attack = &perfrec.AttackBench{
			KeyBits: opts.AttackKeyBits,
			Dynamic: opts.AttackDynamic,
			Stages: []perfrec.Stage{
				perfrec.NewStage("attack-sat", satNS),
				perfrec.NewStage("attack-flush", flushNS),
			},
			SATIterations: perfrec.Median(iters),
			SATConflicts:  perfrec.Median(confl),
			FlushRank:     perfrec.Median(rank),
		}
	}
	return b
}

func snapshotOf(snap []engine.StageSnapshot, name string) engine.StageSnapshot {
	for _, st := range snap {
		if st.Name == name {
			return st
		}
	}
	return engine.StageSnapshot{}
}
