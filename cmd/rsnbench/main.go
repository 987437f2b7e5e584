// Command rsnbench regenerates the paper's experimental results:
//
//	rsnbench -table sizes     Table I structural columns (full size)
//	rsnbench -table main      Table I measured columns (violations,
//	                          applied changes, per-stage runtimes)
//	rsnbench -table bridging  Section III-A bridging reductions
//	rsnbench -table approx    Section IV-C structural approximation
//	rsnbench -table all       everything
//
// The analysis columns run on scaled structures by default (the
// paper's full sizes need many hours; see -ffbudget/-scale). The
// default budget of 700 scan flip-flops per benchmark relies on the
// sparse SCC closure and the incremental violation checking of the
// resolve loop; pass -ffbudget 350 to reproduce the original smaller
// protocol. Absolute
// runtimes are machine-bound; the reproduced claims are the relative
// ones (pure-vs-hybrid change split, bridging reductions,
// approximation overhead).
//
// Engine flags: -workers bounds the circuit worker pool (inner SAT
// pools divide the remaining CPUs), -timeout cancels the experiments
// after a duration, and -v streams per-circuit progress to stderr and
// prints an engine stats table at the end (also stderr).
//
// Observability flags: -report writes the schema-versioned
// machine-readable run report of the -table main protocol as JSON
// ("-" for stdout); -q suppresses the human tables so stdout carries
// only the report; -trace writes the hierarchical span journal
// (run > circuit > stage > query) as JSONL, query spans sampled per
// -trace-sample; -debug-addr serves live expvar, Prometheus-text
// metrics and pprof during the run. -validate FILE checks a stored
// document (run report, bench record, or any other document the suite
// writes) against the schema its schema field names, and -diff-report
// old.json,new.json prints the regression deltas between two reports.
//
// Performance observatory: -bench-out FILE measures the protocol
// -reps times per benchmark and writes a schema-versioned bench
// record (per-stage medians with MAD noise estimates, SAT totals,
// memory peaks, environment fingerprint); -baseline FILE gates the
// fresh record against a committed baseline with the noise-aware
// comparator (exit 1 on regression; -bench-threshold and -bench-mad-k
// tune the allowance), and -compare-bench old.json,new.json gates two
// existing records.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	rsnsec "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/obs/reportdiff"
	"repro/internal/report"
	"repro/internal/version"
)

// benchConfig carries the command-line configuration.
type benchConfig struct {
	table      string
	scale      float64
	ffBudget   int
	circuits   int
	specs      int
	seed       int64
	only       string
	mode       string
	csvPath    string
	workers    int
	verbose    bool
	quiet      bool
	reportPath string
	setup      cliutil.Setup

	// Performance observatory (-bench-out mode).
	benchOut       string
	baseline       string
	reps           int
	benchThreshold float64
	benchMADK      float64
	commit         string
	attackKeyBits  int
	attackDynamic  bool
}

func main() {
	var c benchConfig
	flag.StringVar(&c.table, "table", "main", "sizes | main | bridging | approx | all")
	flag.Float64Var(&c.scale, "scale", 0, "explicit structure scale (overrides -ffbudget)")
	flag.IntVar(&c.ffBudget, "ffbudget", 700, "per-benchmark scan flip-flop budget for auto scaling")
	flag.IntVar(&c.circuits, "circuits", 10, "random circuits per benchmark (paper: 10)")
	flag.IntVar(&c.specs, "specs", 16, "random specifications per circuit (paper: 16)")
	flag.Int64Var(&c.seed, "seed", 1, "experiment seed")
	flag.StringVar(&c.only, "benchmarks", "", "comma-separated benchmark filter")
	flag.StringVar(&c.mode, "mode", "exact", "dependency mode for -table main: exact or structural")
	flag.StringVar(&c.csvPath, "csv", "", "also write the main table as CSV to this file")
	flag.IntVar(&c.workers, "workers", 0, "circuit worker pool size (0 = all CPUs)")
	flag.DurationVar(&c.setup.Timeout, "timeout", 0, "cancel the experiments after this duration (0 = no limit)")
	flag.BoolVar(&c.verbose, "v", false, "print per-circuit progress and an engine stats table (stderr)")
	flag.BoolVar(&c.quiet, "q", false, "suppress the human-readable tables on stdout")
	flag.StringVar(&c.reportPath, "report", "", "write the machine-readable run report as JSON to this file (\"-\" = stdout)")
	flag.StringVar(&c.setup.TracePath, "trace", "", "write the span journal as JSONL to this file")
	flag.IntVar(&c.setup.TraceSample, "trace-sample", 64, "record every n-th high-frequency query span")
	flag.StringVar(&c.setup.DebugAddr, "debug-addr", "", "serve expvar, Prometheus metrics and pprof on this address during the run")
	flag.StringVar(&c.benchOut, "bench-out", "", "measure the protocol -reps times and write the bench record JSON to this file (\"-\" = stdout)")
	flag.StringVar(&c.baseline, "baseline", "", "baseline bench record to gate -bench-out against (nonzero exit on regression)")
	flag.IntVar(&c.reps, "reps", 3, "repetitions per benchmark for -bench-out (medians and MADs are taken across reps)")
	flag.Float64Var(&c.benchThreshold, "bench-threshold", 0, "relative slowdown threshold for the -baseline gate (0 = default 0.10)")
	flag.Float64Var(&c.benchMADK, "bench-mad-k", 0, "MAD multiplier of the noise allowance (0 = default 4)")
	flag.StringVar(&c.commit, "commit", os.Getenv("GITHUB_SHA"), "VCS revision stamped into the bench record's environment")
	flag.IntVar(&c.attackKeyBits, "attack-keybits", 0, "also measure the attack analysis per rep against a key-gate overlay of this many bits (0 = off)")
	flag.BoolVar(&c.attackDynamic, "attack-dynamic", false, "the -attack-keybits overlay uses the dynamic (LFSR) key schedule")
	validate := flag.String("validate", "", "validate a stored document against the schema its schema field names and exit")
	diffSpec := flag.String("diff-report", "", "compare two run reports (old.json,new.json) and print the deltas")
	compareBench := flag.String("compare-bench", "", "gate two bench records (old.json,new.json); nonzero exit on regression")
	logLevel := flag.String("log-level", "info", "log level spec: LEVEL[,component=LEVEL...] (debug|info|warn|error|off)")
	logFormat := flag.String("log-format", "text", "log record encoding: text or json")
	showVer := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("rsnbench"))
		return
	}
	lg, err := cliutil.Logger(os.Stderr, *logLevel, *logFormat, c.quiet)
	if err == nil {
		c.setup.Logger = lg
		c.setup.Stats = c.verbose || c.reportPath != ""
		switch {
		case *validate != "":
			var line string
			if line, err = cliutil.Validate(*validate); err == nil && !c.quiet {
				fmt.Println(line)
			}
		case *diffSpec != "":
			err = diffReports(*diffSpec)
		case *compareBench != "":
			err = compareBenchRecords(*compareBench, c)
		case c.benchOut != "":
			err = runBenchRecord(c)
		default:
			err = run(c)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnbench:", err)
		os.Exit(1)
	}
}

// diffReports implements -diff-report old.json,new.json.
func diffReports(spec string) error {
	oldR, newR, err := readPair("diff-report", spec, rsnsec.ReadRunReport)
	if err != nil {
		return err
	}
	fmt.Println(reportdiff.Compare(oldR, newR))
	return nil
}

// readPair reads the two files of an old.json,new.json flag value.
func readPair[T any](flagName, spec string, read func(io.Reader) (T, error)) (old, new T, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return old, new, fmt.Errorf("-%s wants old.json,new.json", flagName)
	}
	if old, err = readFile(parts[0], read); err == nil {
		new, err = readFile(parts[1], read)
	}
	return old, new, err
}

// readFile opens path and decodes it with a validating reader.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(strings.TrimSpace(path))
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

// benchLimits resolves the gate parameters from the command line.
func (c benchConfig) benchLimits() rsnsec.BenchLimits {
	return rsnsec.BenchLimits{MinPct: c.benchThreshold, MADK: c.benchMADK}
}

// gateBenchRecords prints the gate outcome and returns an error when
// any regression flags (the nonzero-exit path).
func gateBenchRecords(old, new *rsnsec.BenchRecord, lim rsnsec.BenchLimits) error {
	regs := rsnsec.CompareBenchRecords(old, new, lim)
	fmt.Println(rsnsec.FormatBenchRegressions(regs))
	if !old.Env.Matches(new.Env) {
		fmt.Fprintf(os.Stderr, "note: records come from different environments (%s/%s %d CPUs vs %s/%s %d CPUs)\n",
			old.Env.GOOS, old.Env.GOARCH, old.Env.NumCPU, new.Env.GOOS, new.Env.GOARCH, new.Env.NumCPU)
	}
	if len(regs) > 0 {
		return fmt.Errorf("%d performance regression(s)", len(regs))
	}
	return nil
}

// compareBenchRecords implements -compare-bench old.json,new.json.
func compareBenchRecords(spec string, c benchConfig) error {
	oldR, newR, err := readPair("compare-bench", spec, rsnsec.ReadBenchRecord)
	if err != nil {
		return err
	}
	return gateBenchRecords(oldR, newR, c.benchLimits())
}

// runBenchRecord implements -bench-out: collect a fresh record over
// the selected benchmarks, write it, and optionally gate it against
// -baseline (nonzero exit on regression).
func runBenchRecord(c benchConfig) error {
	benchmarks, cfg, err := c.protocol()
	if err != nil {
		return err
	}
	ctx := context.Background()
	if c.setup.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.setup.Timeout)
		defer cancel()
	}
	opts := rsnsec.BenchCollectOptions{
		Reps: c.reps, Commit: c.commit,
		AttackKeyBits: c.attackKeyBits, AttackDynamic: c.attackDynamic,
	}
	if c.verbose {
		opts.Progress = func(f string, a ...any) { fmt.Fprintf(os.Stderr, "  %s\n", fmt.Sprintf(f, a...)) }
	}
	rec, err := rsnsec.CollectBenchRecord(ctx, benchmarks, cfg, opts)
	if err != nil {
		return err
	}
	rec.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	w := io.Writer(os.Stdout)
	if c.benchOut != "-" {
		f, err := os.Create(c.benchOut)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rsnsec.WriteBenchRecord(w, rec); err != nil {
		return err
	}
	if c.benchOut != "-" {
		c.setup.Logger.Info("bench record written", "path", c.benchOut)
	}
	if c.baseline == "" {
		return nil
	}
	base, err := readFile(c.baseline, rsnsec.ReadBenchRecord)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return gateBenchRecords(base, rec, c.benchLimits())
}

func selectBenchmarks(filter string) ([]rsnsec.Benchmark, error) {
	cat := rsnsec.Catalog()
	if filter == "" {
		return cat, nil
	}
	var out []rsnsec.Benchmark
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		b, ok := rsnsec.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		out = append(out, b)
	}
	return out, nil
}

// protocol selects the benchmarks and builds the run configuration
// the tables and -bench-out share.
func (c benchConfig) protocol() ([]rsnsec.Benchmark, rsnsec.RunConfig, error) {
	cfg := rsnsec.DefaultRunConfig()
	cfg.Scale = c.scale
	cfg.TargetScanFFs = c.ffBudget
	cfg.Circuits = c.circuits
	cfg.Specs = c.specs
	cfg.Seed = c.seed
	cfg.Workers = c.workers
	benchmarks, err := selectBenchmarks(c.only)
	if err == nil {
		cfg.Mode, err = rsnsec.ParseMode(c.mode)
	}
	return benchmarks, cfg, err
}

func run(c benchConfig) (err error) {
	benchmarks, cfg, err := c.protocol()
	if err != nil {
		return err
	}
	// Human-readable tables go to stdout unless -q; progress, warnings
	// and the stats table go to stderr so a -report - pipeline reads
	// clean JSON from stdout.
	out, errw := cliutil.Outputs(c.quiet)
	r, err := c.setup.Start(obs.Str("tool", "rsnbench"), obs.Str("table", c.table),
		obs.Int("benchmarks", int64(len(benchmarks))), obs.Int("workers", int64(c.workers)))
	if err != nil {
		return err
	}
	defer cliutil.CloseFirstErr(&err, r.Close)
	ctx := r.Ctx
	cfg.Stats = r.Stats
	cfg.Tracer = r.Tracer
	cfg.TraceParent = r.Span
	if c.verbose {
		cfg.Progress = func(f string, a ...any) { fmt.Fprintf(errw, "  %s\n", fmt.Sprintf(f, a...)) }
	}

	want := func(name string) bool { return c.table == name || c.table == "all" }
	ran := false
	var mainResults []*rsnsec.RunResult
	if want("sizes") {
		ran = true
		sizesTable(out, benchmarks)
	}
	if want("main") {
		ran = true
		mainResults, err = mainTable(ctx, out, errw, benchmarks, cfg, c.csvPath)
		if err != nil {
			return err
		}
	}
	if want("bridging") {
		ran = true
		if err := bridgingTable(ctx, out, benchmarks, cfg); err != nil {
			return err
		}
	}
	if want("approx") {
		ran = true
		if err := approxTable(ctx, out, benchmarks, cfg); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown table %q", c.table)
	}
	if c.reportPath != "" {
		rep := rsnsec.BuildRunReport("rsnbench", c.table, cfg, mainResults, r.Stats)
		rep.StartedAt = time.Now().UTC().Format(time.RFC3339)
		w := io.Writer(os.Stdout)
		if c.reportPath != "-" {
			f, err := os.Create(c.reportPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := rsnsec.WriteRunReport(w, rep); err != nil {
			return err
		}
		if c.reportPath != "-" {
			c.setup.Logger.Info("run report written", "path", c.reportPath)
		}
	}
	if c.verbose {
		fmt.Fprintf(errw, "engine stats:\n%s\n", r.Stats)
	}
	return nil
}

func sizesTable(out io.Writer, benchmarks []rsnsec.Benchmark) {
	t := report.New("Table I (structural columns, full size) — paper vs generated",
		"Benchmark", "Family", ">#Scan Registers", ">#Scan Flip-Flops", ">#Scan Mux's", ">Paper FFs")
	for _, b := range benchmarks {
		nw := b.Build(1)
		st := nw.Stats()
		t.Add(b.Name, b.Family.String(), report.Int(st.Registers), report.Int(st.ScanFFs),
			report.Int(st.Muxes), report.Int(b.PaperScanFFs))
	}
	t.WriteTo(out)
	fmt.Fprintln(out)
}

func mainTable(ctx context.Context, out, errw io.Writer, benchmarks []rsnsec.Benchmark, cfg rsnsec.RunConfig, csvPath string) ([]*rsnsec.RunResult, error) {
	var csvW *csv.Writer
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		csvW = csv.NewWriter(f)
		defer csvW.Flush()
		if err := csvW.Write([]string{
			"benchmark", "family", "regs", "scan_ffs", "muxes",
			"full_regs", "full_scan_ffs", "full_muxes",
			"avg_violating_regs", "avg_pure_changes", "avg_hybrid_changes", "avg_total_changes",
			"dep_calc_s", "pure_s", "hybrid_s", "total_s",
			"runs", "skipped_secure", "skipped_insecure_logic", "errors",
		}); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "Protocol: %d circuits x %d specs per benchmark, mode=%v, scan-FF budget %d (scale %g)\n",
		cfg.Circuits, cfg.Specs, cfg.Mode, cfg.TargetScanFFs, cfg.Scale)
	t := report.New("Table I (measured columns, scaled structures)",
		"Benchmark", ">Regs", ">FFs", ">Muxes",
		">#Reg w/ viol.", ">Chg pure", ">Chg hybrid", ">Chg total",
		">Dep calc (s)", ">Pure (s)", ">Hybrid (s)", ">Total (s)",
		">Runs", ">Skip(sec)", ">Skip(logic)")
	var sumPure, sumTotal float64
	var csvErr error
	// The protocol itself is the shared exp.RunProtocol driver (also
	// behind rsnserved jobs); the observer renders each finished row.
	results, err := rsnsec.RunProtocolCtx(ctx, benchmarks, cfg, func(res *rsnsec.RunResult) {
		b := res.Benchmark
		if res.Errors > 0 {
			fmt.Fprintf(errw, "warning: %s: %d runs failed to resolve\n", b.Name, res.Errors)
		}
		t.Add(b.Name,
			report.Int(res.ScaledStats.Registers), report.Int(res.ScaledStats.ScanFFs), report.Int(res.ScaledStats.Muxes),
			report.F2(res.AvgViolatingRegs), report.F1(res.AvgPureChanges), report.F1(res.AvgHybridChanges), report.F1(res.AvgTotalChanges),
			report.Secs(res.AvgDepTime), report.Secs(res.AvgPureTime), report.Secs(res.AvgHybridTime), report.Secs(res.AvgTotalTime),
			report.Int(res.Runs), report.Int(res.SkippedNoViolation), report.Int(res.SkippedInsecureLogic))
		sumPure += res.AvgPureChanges
		sumTotal += res.AvgTotalChanges
		if csvW != nil && csvErr == nil {
			csvErr = csvW.Write([]string{
				b.Name, b.Family.String(),
				report.Int(res.ScaledStats.Registers), report.Int(res.ScaledStats.ScanFFs), report.Int(res.ScaledStats.Muxes),
				report.Int(res.FullStats.Registers), report.Int(res.FullStats.ScanFFs), report.Int(res.FullStats.Muxes),
				report.F2(res.AvgViolatingRegs), report.F1(res.AvgPureChanges), report.F1(res.AvgHybridChanges), report.F1(res.AvgTotalChanges),
				report.Secs(res.AvgDepTime), report.Secs(res.AvgPureTime), report.Secs(res.AvgHybridTime), report.Secs(res.AvgTotalTime),
				report.Int(res.Runs), report.Int(res.SkippedNoViolation), report.Int(res.SkippedInsecureLogic), report.Int(res.Errors),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	if csvErr != nil {
		return nil, csvErr
	}
	t.WriteTo(out)
	if sumTotal > 0 {
		fmt.Fprintf(out, "\npure changes are %.0f%% of total changes (paper: ~43%%)\n\n", 100*sumPure/sumTotal)
	}
	return results, nil
}

func bridgingTable(ctx context.Context, out io.Writer, benchmarks []rsnsec.Benchmark, cfg rsnsec.RunConfig) error {
	t := report.New("Section III-A: bridging over internal flip-flops",
		"Benchmark", ">FFs (no bridge)", ">FFs (bridged)", ">FF reduction",
		">Deps (no bridge)", ">Deps (bridged)", ">Dep reduction")
	var sumFF, sumDep float64
	n := 0
	for _, b := range benchmarks {
		res, err := rsnsec.RunBridgingCtx(ctx, b, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		t.Add(b.Name, report.Int(res.FFsTotal), report.Int(res.FFsBridged), report.Pct(res.FFReduction()),
			report.Int(res.DepsNoBridge), report.Int(res.DepsBridge), report.Pct(res.DepReduction()))
		sumFF += res.FFReduction()
		sumDep += res.DepReduction()
		n++
	}
	t.WriteTo(out)
	if n > 0 {
		fmt.Fprintf(out, "\naverage reductions: %.2f%% flip-flops, %.2f%% dependencies (paper: 41.72%% / 65.37%%)\n\n",
			100*sumFF/float64(n), 100*sumDep/float64(n))
	}
	return nil
}

func approxTable(ctx context.Context, out io.Writer, benchmarks []rsnsec.Benchmark, cfg rsnsec.RunConfig) error {
	t := report.New("Section IV-C: approximating path-dependency with structural dependency",
		"Benchmark", ">Runs", ">Exact changes", ">Approx changes", ">Overhead", ">False insecure", ">Rate")
	var sumExact, sumApprox, sumOverhead float64
	falseCnt, totalCnt, withRuns := 0, 0, 0
	for _, b := range benchmarks {
		res, err := rsnsec.RunApproxCtx(ctx, b, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		t.Add(b.Name, report.Int(res.Runs), report.F1(res.ExactChanges), report.F1(res.ApproxChanges),
			report.Pct(res.ChangeOverhead()), report.Int(res.FalseInsecure), report.Pct(res.FalseInsecureRate()))
		sumExact += res.ExactChanges
		sumApprox += res.ApproxChanges
		falseCnt += res.FalseInsecure
		totalCnt += res.TotalSpecRuns
		if res.Runs > 0 {
			sumOverhead += res.ChangeOverhead()
			withRuns++
		}
	}
	t.WriteTo(out)
	if sumExact > 0 && totalCnt > 0 && withRuns > 0 {
		fmt.Fprintf(out, "\noverall: +%.0f%% additional changes weighted, +%.0f%% per-benchmark average (paper: +61%%); %.2f%% falsely insecure logic (paper: 6.21%%)\n\n",
			100*(sumApprox/sumExact-1), 100*sumOverhead/float64(withRuns), 100*float64(falseCnt)/float64(totalCnt))
	}
	return nil
}
