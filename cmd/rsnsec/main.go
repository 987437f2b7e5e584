// Command rsnsec analyzes a reconfigurable scan network against a
// security specification and transforms it into a data-flow secure
// network, printing the pipeline stages of the paper's Figure 2.
//
// Two input modes:
//
//	rsnsec -benchmark BasicSCB [-scale 0.5] [-seed 1] [-spec-seed 1]
//	    reconstructs a Table I benchmark, attaches a random circuit and
//	    a random security specification (the paper's protocol);
//
//	rsnsec -icl network.icl
//	    reads an ICL description (without instrument links) and runs
//	    the pure-path stage against a random specification.
//
// Use -mode structural for the Section IV-C over-approximation and
// -out to write the secured network back as ICL.
//
// Attack mode: -attack runs the scan-obfuscation attack analysis
// instead of securing. The network comes from -benchmark or -icl; the
// key-gate overlay from -overlay overlay.json (rsnsec.obfus-overlay/v1,
// optionally with an embedded defender key) or is generated with
// -obf-keybits N [-obf-mux-share F] [-obf-dynamic] from -seed. The true
// key defaults to the overlay's embedded key (generated overlays always
// have one); -key HEX overrides it. The run prints the
// rsnsec.attack-report/v1 document on stdout — under -q the only bytes
// stdout carries. -attack-timings stamps wall-clock durations into the
// report (off by default so identical runs stay byte-identical);
// -attack-horizon, -attack-iters and -attack-conflicts bound the
// attacks. -validate-attack report.json checks a stored report against
// the schema and exits.
//
// Incremental mode: -delta script.json secures the base network, then
// applies the JSON edit script and re-secures the derived network
// incrementally — wiring-only scripts reuse the dependency analysis
// entirely — and prints the rsnsec.delta-report/v1 document (the delta
// run's report plus the structured diff against the base run) on
// stdout. Under -q stdout carries nothing but that document.
//
// Engine flags:
// -workers bounds the SAT worker pool (the hybrid resolve stage also
// fans candidate trials out over it), -timeout cancels the run after
// a duration, and -v raises the engine log component to debug (one
// structured progress record per stage event on stderr, unless the
// -log-level spec names the engine component) and prints a stats
// table — the propagate-delta row shows how much of the violation
// checking the incremental resolution answered from the cached fixed
// point (items = re-propagated nodes, saved = reused ones).
//
// Observability flags: -q silences the informational stdout lines and
// the stderr diagnostics (debug-endpoint banner, progress, stats) —
// full machine mode, hard errors still reach stderr; -trace writes the
// hierarchical span journal (run > secure > stage > query) as JSONL
// with query spans sampled per -trace-sample, and -debug-addr serves
// live expvar, Prometheus-text metrics and pprof during the run.
// -validate-slo FILE checks a stored observability document — an SLO
// objectives config (rsnsec.slo-config/v1), a served status snapshot
// (rsnsec.slo-status/v1) or a metrics-history query result
// (rsnsec.metrics-history/v1) — against its schema and exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	rsnsec "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/series"
	"repro/internal/obs/slo"
	"repro/internal/version"
)

// engineConfig carries the run-orchestration flags.
type engineConfig struct {
	workers     int
	timeout     time.Duration
	verbose     bool
	quiet       bool
	tracePath   string
	traceSample int
	debugAddr   string
	logger      *slog.Logger
}

func main() {
	var (
		benchName   = flag.String("benchmark", "", "Table I benchmark name (see rsnbench -table sizes)")
		iclPath     = flag.String("icl", "", "path to an ICL network description")
		scale       = flag.Float64("scale", 1, "structure scale for -benchmark (0..1]")
		seed        = flag.Int64("seed", 1, "circuit generation seed")
		specSeed    = flag.Int64("spec-seed", 1, "security specification seed")
		mode        = flag.String("mode", "exact", "dependency mode: exact or structural")
		outPath     = flag.String("out", "", "write the secured network as ICL to this file")
		deltaPath   = flag.String("delta", "", "JSON edit script: secure the base, apply the script, re-secure incrementally and print the delta report on stdout")
		benchPath   = flag.String("bench", "", "circuit (.bench) backing the -icl network's instrument links")
		doVerify    = flag.Bool("verify", false, "re-check the result with the independent verifier")
		explain     = flag.Int("explain", 0, "print up to N violating data flows before resolving")
		workers     = flag.Int("workers", 0, "SAT worker pool size (0 = all CPUs)")
		timeout     = flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
		verbose     = flag.Bool("v", false, "log engine progress at debug level and print a stats table (stderr)")
		quiet       = flag.Bool("q", false, "suppress the informational lines on stdout")
		trace       = flag.String("trace", "", "write the span journal as JSONL to this file")
		traceSmp    = flag.Int("trace-sample", 64, "record every n-th high-frequency query span")
		debugAddr   = flag.String("debug-addr", "", "serve expvar, Prometheus metrics and pprof on this address during the run")
		attack      = flag.Bool("attack", false, "run the scan-obfuscation attack analysis and print the attack report on stdout")
		overlayPath = flag.String("overlay", "", "key-gate overlay (rsnsec.obfus-overlay/v1) for -attack")
		obfKeyBits  = flag.Int("obf-keybits", 0, "generate an overlay with this many key bits when -overlay is not given")
		obfMuxShare = flag.Float64("obf-mux-share", -1, "fraction of generated key bits gating mux selects (-1 = default 0.5)")
		obfDynamic  = flag.Bool("obf-dynamic", false, "generated overlay uses the dynamic (LFSR) key schedule")
		keyHex      = flag.String("key", "", "true key as big-endian hex (default: the overlay's embedded key)")
		atkHorizon  = flag.Int("attack-horizon", 0, "observation window in shift cycles (0 = derived from the network)")
		atkIters    = flag.Int("attack-iters", 0, "max ScanSAT refinement iterations (0 = default)")
		atkConfl    = flag.Int64("attack-conflicts", 0, "total solver conflict budget for the key recovery (0 = unlimited)")
		atkTimings  = flag.Bool("attack-timings", false, "include wall-clock timings in the attack report")
		validateAtk = flag.String("validate-attack", "", "validate a stored attack report and exit")
		validateSLO = flag.String("validate-slo", "", "validate a stored SLO/observability document (slo-config, slo-status or metrics-history) and exit")
		logLevel    = flag.String("log-level", "info", "log level spec: LEVEL[,component=LEVEL...] (debug|info|warn|error|off)")
		logFormat   = flag.String("log-format", "text", "log record encoding: text or json")
		showVer     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("rsnsec"))
		return
	}
	levels := *logLevel
	if *verbose && !strings.Contains(levels, "engine=") {
		// -v raises the engine's progress records to debug unless the
		// level spec sets the engine component itself.
		levels += ",engine=debug"
	}
	lg, err := cliutil.Logger(os.Stderr, levels, *logFormat, *quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnsec:", err)
		os.Exit(1)
	}
	ec := engineConfig{workers: *workers, timeout: *timeout, verbose: *verbose,
		quiet: *quiet, tracePath: *trace, traceSample: *traceSmp, debugAddr: *debugAddr,
		logger: lg}
	switch {
	case *validateAtk != "":
		err = runValidateAttack(*validateAtk, ec)
	case *validateSLO != "":
		err = runValidateSLO(*validateSLO, ec)
	case *attack:
		ac := attackConfig{overlayPath: *overlayPath, keyBits: *obfKeyBits,
			muxShare: *obfMuxShare, dynamic: *obfDynamic, keyHex: *keyHex,
			horizon: *atkHorizon, iters: *atkIters, conflicts: *atkConfl,
			timings: *atkTimings}
		err = runAttack(*benchName, *iclPath, *scale, *seed, ac, ec)
	default:
		err = run(*benchName, *iclPath, *benchPath, *scale, *seed, *specSeed, *mode, *outPath, *deltaPath, *doVerify, *explain, ec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnsec:", err)
		os.Exit(1)
	}
}

func run(benchName, iclPath, benchPath string, scale float64, seed, specSeed int64, modeName, outPath, deltaPath string, doVerify bool, explain int, ec engineConfig) (err error) {
	var m rsnsec.Mode
	switch modeName {
	case "exact":
		m = rsnsec.Exact
	case "structural":
		m = rsnsec.StructuralApprox
	default:
		return fmt.Errorf("unknown mode %q (want exact or structural)", modeName)
	}

	ctx := context.Background()
	if ec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ec.timeout)
		defer cancel()
	}

	// Informational lines go to stdout, engine progress and the stats
	// table to stderr; -q silences both (hard errors still reach
	// stderr through main).
	out := io.Writer(os.Stdout)
	errw := io.Writer(os.Stderr)
	if ec.quiet {
		out = io.Discard
		errw = io.Discard
	}
	reg := rsnsec.NewMetricsRegistry()
	var stats *rsnsec.EngineStats
	if ec.verbose || ec.debugAddr != "" {
		stats = rsnsec.NewEngineStatsOn(reg)
	}
	tracer, closeTrace, err := cliutil.OpenTrace(ec.tracePath)
	if err != nil {
		return err
	}
	defer cliutil.CloseFirstErr(&err, closeTrace)
	tracer.SampleEvery("query", ec.traceSample)
	tracer.SampleEvery("sim-filter", ec.traceSample)
	tracer.SampleEvery("propagate-delta", ec.traceSample)
	if ec.debugAddr != "" {
		dbg, err := rsnsec.StartDebugServer(ec.debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		ec.logger.LogAttrs(ctx, slog.LevelInfo, "debug endpoints up", slog.String("addr", dbg.Addr()))
	}
	runSpan := tracer.Start(nil, "run", obs.Str("tool", "rsnsec"), obs.Int("workers", int64(ec.workers)))
	defer runSpan.End()
	logTo := func(f string, a ...any) { fmt.Fprintf(out, "  %s\n", fmt.Sprintf(f, a...)) }
	secOpts := rsnsec.Options{Mode: m, Log: logTo, Workers: ec.workers, Context: ctx, Stats: stats,
		Tracer: tracer, TraceParent: runSpan, Logger: olog.Component(ec.logger, "engine")}
	engOpts := secOpts.EngineOptions()

	var (
		nw           *rsnsec.Network
		circuit      *rsnsec.Netlist
		internal     []rsnsec.FFID
		embeddedSpec *rsnsec.Spec
		dataSources  []bool
	)
	switch {
	case benchName != "" && iclPath != "":
		return fmt.Errorf("-benchmark and -icl are mutually exclusive")
	case benchName != "":
		b, ok := rsnsec.BenchmarkByName(benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", benchName)
		}
		nw = b.Build(scale)
		att := rsnsec.AttachCircuit(nw, rsnsec.DefaultCircuitConfig(), seed)
		circuit = att.Circuit
		internal = att.Internal
		dataSources = att.DataSources
		fmt.Fprintf(out, "benchmark %s at scale %g: %d registers, %d scan FFs, %d muxes, circuit %d FFs\n",
			benchName, scale, nw.Stats().Registers, nw.Stats().ScanFFs, nw.Stats().Muxes, circuit.NumFFs())
	case iclPath != "":
		data, err := os.ReadFile(iclPath)
		if err != nil {
			return err
		}
		var lookup func(string) (rsnsec.FFID, bool)
		var lazyCircuit *rsnsec.Netlist
		if benchPath != "" {
			// Bind instrument links against a real circuit.
			cf, err := os.Open(benchPath)
			if err != nil {
				return err
			}
			circuit, err = rsnsec.ParseBench(cf)
			cf.Close()
			if err != nil {
				return err
			}
			byName := map[string]rsnsec.FFID{}
			for i := range circuit.FFs {
				byName[circuit.FFs[i].Name] = rsnsec.FFID(i)
			}
			lookup = func(name string) (rsnsec.FFID, bool) {
				id, ok := byName[name]
				return id, ok
			}
		} else {
			// Synthesize hold flip-flops for referenced instrument
			// names so link-carrying files load without a circuit.
			lazyCircuit = rsnsec.NewNetlist()
			byName := map[string]rsnsec.FFID{}
			lookup = func(name string) (rsnsec.FFID, bool) {
				if id, ok := byName[name]; ok {
					return id, true
				}
				f := lazyCircuit.AddFF(name, 0)
				lazyCircuit.SetFFInput(f, lazyCircuit.FFs[f].Node)
				byName[name] = f
				return f, true
			}
		}
		var fileSpec *rsnsec.Spec
		nw, fileSpec, err = rsnsec.ParseICLWithSpec(string(data), lookup)
		if err != nil {
			return err
		}
		embeddedSpec = fileSpec
		if circuit == nil {
			// The synthetic circuit needs the network's module table.
			circuit = rsnsec.NewNetlist()
			for _, name := range nw.Modules {
				circuit.AddModule(name)
			}
			for i := range lazyCircuit.FFs {
				name := lazyCircuit.FFs[i].Name
				mod := 0
				for mi, mn := range nw.Modules {
					if len(name) > len(mn) && name[:len(mn)] == mn && name[len(mn)] == '.' {
						mod = mi
						break
					}
				}
				f := circuit.AddFF(name, mod)
				circuit.SetFFInput(f, circuit.FFs[f].Node)
			}
			if circuit.NumFFs() == 0 {
				for mi, name := range nw.Modules {
					f := circuit.AddFF(name+".f", mi)
					circuit.SetFFInput(f, circuit.FFs[f].Node)
				}
			}
		}
		fmt.Fprintf(out, "network %s: %d registers, %d scan FFs, %d muxes, circuit %d FFs\n",
			nw.Name, nw.Stats().Registers, nw.Stats().ScanFFs, nw.Stats().Muxes, circuit.NumFFs())
	default:
		return fmt.Errorf("one of -benchmark or -icl is required")
	}

	spec := embeddedSpec
	if spec != nil {
		fmt.Fprintln(out, "using the security specification embedded in the ICL file")
	}
	genSpec := func(seed int64) *rsnsec.Spec {
		if dataSources != nil {
			return rsnsec.GenerateSpecWithRoles(len(nw.Modules), dataSources, rsnsec.DefaultSpecGenConfig(), seed)
		}
		return rsnsec.GenerateSpec(len(nw.Modules), rsnsec.DefaultSpecGenConfig(), seed)
	}
	showFlows := func(sp *rsnsec.Spec) error {
		if explain <= 0 {
			return nil
		}
		an, err := rsnsec.NewAnalysisOpts(nw, circuit, internal, sp, m, engOpts)
		if err != nil {
			return err
		}
		exps := an.ExplainAll(nw)
		if len(exps) == 0 {
			fmt.Fprintln(out, "no violating data flows")
			return nil
		}
		fmt.Fprintf(out, "violating data flows (%d total, showing up to %d):\n", len(exps), explain)
		for i, e := range exps {
			if i >= explain {
				break
			}
			fmt.Fprintf(out, "  [%d wiring hops] %s\n", e.WiringHops, e)
		}
		return nil
	}
	if spec == nil {
		// Like the paper's protocol, skip generated specifications under
		// which the circuit logic itself is insecure: no scan network
		// transformation can help those.
		const maxTries = 16
		analysis, err := rsnsec.NewAnalysisOpts(nw, circuit, internal, nil, m, engOpts)
		if err != nil {
			return err
		}
		chosen := int64(-1)
		for try := int64(0); try < maxTries; try++ {
			cand := genSpec(specSeed + try)
			ca := analysis.WithSpec(cand)
			if len(ca.InsecureModulePairs()) > 0 {
				continue // the paper's protocol skips such specifications
			}
			spec = cand
			chosen = specSeed + try
			if len(ca.ViolatingRegisters(nw)) > 0 {
				break // prefer a specification the method has work on
			}
		}
		if spec == nil {
			return fmt.Errorf("no generated specification with secure circuit logic in %d tries; give -spec-seed", maxTries)
		}
		if chosen != specSeed {
			fmt.Fprintf(out, "using spec seed %d (earlier seeds classified the circuit logic insecure)\n", chosen)
		}
	}
	if err := showFlows(spec); err != nil {
		return err
	}
	if deltaPath != "" {
		if outPath != "" || doVerify {
			return fmt.Errorf("-delta is incompatible with -out and -verify (its result is the delta report, not a transformed network)")
		}
		return runDelta(nw, circuit, internal, spec, deltaPath, m, secOpts, out)
	}
	rep, err := rsnsec.Secure(nw, circuit, internal, spec, secOpts)
	if err != nil {
		return err
	}
	switch {
	case rep.InsecureLogic:
		fmt.Fprintf(out, "result: INSECURE CIRCUIT LOGIC (%d module pairs) — requires circuit redesign\n",
			len(rep.InsecureModulePairs))
	case rep.Secured:
		fmt.Fprintf(out, "result: SECURE after %d changes (%d pure + %d hybrid) in %s\n",
			rep.TotalChanges(), rep.PureChanges, rep.HybridChanges, rep.Times.Total.Round(1000000))
	}
	if doVerify && rep.Secured {
		v := rsnsec.Verify(nw, circuit, spec)
		if v.Secure {
			fmt.Fprintf(out, "independent verification: SECURE (%d edges, %d exhaustive + %d SAT checks)\n",
				v.Edges, v.ExhaustiveChecks, v.SATChecks)
		} else {
			fmt.Fprintln(os.Stderr, "independent verification FAILED:")
			for _, f := range v.Counterexamples {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			return fmt.Errorf("verification mismatch — please report this")
		}
	}
	if outPath != "" && rep.Secured {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		name := func(ff rsnsec.FFID) string { return circuit.FFs[ff].Name }
		if err := rsnsec.WriteICLWithSpec(f, nw, spec, name); err != nil {
			return err
		}
		fmt.Fprintf(out, "secured network written to %s\n", outPath)
	}
	if ec.verbose && stats != nil {
		fmt.Fprintf(errw, "engine stats:\n%s\n", stats)
	}
	return nil
}

// attackConfig carries the -attack mode flags.
type attackConfig struct {
	overlayPath string
	keyBits     int
	muxShare    float64
	dynamic     bool
	keyHex      string
	horizon     int
	iters       int
	conflicts   int64
	timings     bool
}

// loadAttackNetwork resolves the attacked network from -benchmark or
// -icl. Attack mode never consults the instrument circuit, so ICL
// instrument links resolve against synthesized flip-flop IDs.
func loadAttackNetwork(benchName, iclPath string, scale float64, out io.Writer) (*rsnsec.Network, error) {
	switch {
	case benchName != "" && iclPath != "":
		return nil, fmt.Errorf("-benchmark and -icl are mutually exclusive")
	case benchName != "":
		b, ok := rsnsec.BenchmarkByName(benchName)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", benchName)
		}
		nw := b.Build(scale)
		st := nw.Stats()
		fmt.Fprintf(out, "benchmark %s at scale %g: %d registers, %d scan FFs, %d muxes\n",
			benchName, scale, st.Registers, st.ScanFFs, st.Muxes)
		return nw, nil
	case iclPath != "":
		data, err := os.ReadFile(iclPath)
		if err != nil {
			return nil, err
		}
		byName := map[string]rsnsec.FFID{}
		lookup := func(name string) (rsnsec.FFID, bool) {
			if id, ok := byName[name]; ok {
				return id, true
			}
			id := rsnsec.FFID(len(byName))
			byName[name] = id
			return id, true
		}
		nw, _, err := rsnsec.ParseICLWithSpec(string(data), lookup)
		if err != nil {
			return nil, err
		}
		st := nw.Stats()
		fmt.Fprintf(out, "network %s: %d registers, %d scan FFs, %d muxes\n",
			nw.Name, st.Registers, st.ScanFFs, st.Muxes)
		return nw, nil
	default:
		return nil, fmt.Errorf("one of -benchmark or -icl is required")
	}
}

// runAttack is the -attack mode: resolve the network and overlay, run
// the attack analysis and print the rsnsec.attack-report/v1 document on
// stdout (under -q the only bytes stdout carries).
func runAttack(benchName, iclPath string, scale float64, seed int64, ac attackConfig, ec engineConfig) (err error) {
	ctx := context.Background()
	if ec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ec.timeout)
		defer cancel()
	}
	out := io.Writer(os.Stdout)
	errw := io.Writer(os.Stderr)
	if ec.quiet {
		out = io.Discard
		errw = io.Discard
	}
	nw, err := loadAttackNetwork(benchName, iclPath, scale, out)
	if err != nil {
		return err
	}

	var (
		ov      *rsnsec.Obfuscation
		trueKey []bool
	)
	switch {
	case ac.overlayPath != "" && ac.keyBits > 0:
		return fmt.Errorf("-overlay and -obf-keybits are mutually exclusive")
	case ac.overlayPath != "":
		data, err := os.ReadFile(ac.overlayPath)
		if err != nil {
			return err
		}
		ov, trueKey, err = rsnsec.ParseObfuscationOverlay(data, nw)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "overlay: %d key bits, %d gates, dynamic=%v\n",
			ov.NumKeyBits, len(ov.Gates), ov.Dynamic)
	case ac.keyBits > 0:
		ov, trueKey, err = rsnsec.ObfuscateNetwork(nw,
			rsnsec.ObfusGenConfig{KeyBits: ac.keyBits, MuxShare: ac.muxShare, Dynamic: ac.dynamic}, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generated overlay (seed %d): %d key bits, %d gates, dynamic=%v\n",
			seed, ov.NumKeyBits, len(ov.Gates), ov.Dynamic)
	default:
		return fmt.Errorf("-attack needs -overlay or -obf-keybits")
	}
	if ac.keyHex != "" {
		trueKey, err = rsnsec.ParseObfusKeyHex(ac.keyHex, ov.NumKeyBits)
		if err != nil {
			return err
		}
	}
	if trueKey == nil {
		return fmt.Errorf("the overlay carries no key; give -key HEX")
	}

	var stats *rsnsec.EngineStats
	if ec.verbose {
		stats = rsnsec.NewEngineStats()
	}
	tracer, closeTrace, err := cliutil.OpenTrace(ec.tracePath)
	if err != nil {
		return err
	}
	defer cliutil.CloseFirstErr(&err, closeTrace)
	runSpan := tracer.Start(nil, "run", obs.Str("tool", "rsnsec"), obs.Str("mode", "attack"))
	defer runSpan.End()

	rep, err := rsnsec.RunAttackAnalysis(ctx, "rsnsec", nw, ov, trueKey, rsnsec.AttackOptions{
		Horizon:        ac.horizon,
		MaxIterations:  ac.iters,
		ConflictBudget: ac.conflicts,
		IncludeTimings: ac.timings,
		Stats:          stats,
		Tracer:         tracer,
		TraceParent:    runSpan,
	})
	if err != nil {
		return err
	}
	if s := rep.SAT; s != nil {
		fmt.Fprintf(out, "sat attack: %s, key %s (verified=%v) after %d iterations, %d solve calls\n",
			s.Outcome, s.RecoveredKey, s.Verified, s.Iterations, s.SolveCalls)
	}
	if f := rep.Flush; f != nil {
		if f.Applicable {
			fmt.Fprintf(out, "flush attack: rank %d/%d, %d of %d key bits recovered\n",
				f.Rank, f.Equations, len(f.RecoveredBits), ov.NumKeyBits)
		} else {
			fmt.Fprintf(out, "flush attack: not applicable (%s)\n", f.Reason)
		}
	}
	if ec.verbose && stats != nil {
		fmt.Fprintf(errw, "engine stats:\n%s\n", stats)
	}
	return rsnsec.WriteAttackReport(os.Stdout, rep)
}

// runValidateAttack is the -validate-attack mode.
func runValidateAttack(path string, ec engineConfig) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := rsnsec.ReadAttackReport(f)
	if err != nil {
		return err
	}
	if !ec.quiet {
		fmt.Printf("%s: valid %s (network %s, %d key bits)\n",
			path, rep.Schema, rep.Network.Name, rep.Overlay.KeyBits)
	}
	return nil
}

// runValidateSLO is the -validate-slo mode: sniff the document's
// schema field and run it through the matching validating reader. One
// flag covers the PR-10 document family — objectives configs
// (rsnsec.slo-config/v1), served status documents (rsnsec.slo-status/v1)
// and metrics-history query results (rsnsec.metrics-history/v1) — so a
// pipeline can check any artifact it stored without knowing which
// endpoint produced it.
func runValidateSLO(path string, ec engineConfig) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: parse: %w", path, err)
	}
	var detail string
	switch head.Schema {
	case slo.ConfigSchema:
		c, err := slo.ReadConfig(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		detail = fmt.Sprintf("%d objectives", len(c.Objectives))
	case slo.StatusSchema:
		s, err := slo.ReadStatus(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		detail = fmt.Sprintf("%d objectives, breaching=%v", len(s.Objectives), s.Breaching)
	case series.HistorySchema:
		h, err := series.ReadHistory(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		detail = fmt.Sprintf("%s %s/%s, %d points", h.Kind, h.Name, h.Fn, len(h.Points))
	default:
		return fmt.Errorf("%s: unknown schema %q (want %s, %s or %s)",
			path, head.Schema, slo.ConfigSchema, slo.StatusSchema, series.HistorySchema)
	}
	if !ec.quiet {
		fmt.Printf("%s: valid %s (%s)\n", path, head.Schema, detail)
	}
	return nil
}

// runDelta is the -delta mode: secure the base network on a clone (so
// the base wiring survives for the edit), apply the script, re-secure
// the derived network through the incremental path, and print the
// rsnsec.delta-report/v1 document on stdout — under -q the only bytes
// stdout carries, so the mode pipes into jq and friends.
func runDelta(nw *rsnsec.Network, circuit *rsnsec.Netlist, internal []rsnsec.FFID, spec *rsnsec.Spec, deltaPath string, m rsnsec.Mode, secOpts rsnsec.Options, out io.Writer) error {
	data, err := os.ReadFile(deltaPath)
	if err != nil {
		return err
	}
	script, err := rsnsec.ParseEditScript(data)
	if err != nil {
		return err
	}
	scriptHash, err := script.CanonicalHash()
	if err != nil {
		return err
	}
	base, err := rsnsec.Secure(nw.Clone(), circuit, internal, spec, secOpts)
	if err != nil {
		return err
	}
	baseRep := rsnsec.SecureRunReport("rsnsec", nw.Name, m, nw.Stats(), base, nil)
	fmt.Fprintf(out, "base run: secured=%v, %d changes\n", base.Secured, base.TotalChanges())
	res, err := rsnsec.SecureDelta("rsnsec", nw.Name, base.Analysis, nw, script, secOpts)
	if err != nil {
		return err
	}
	kind := "incremental, dependencies reused"
	if res.Structural {
		kind = "structural, dependencies recomputed"
	}
	fmt.Fprintf(out, "delta run (%d ops, %s): secured=%v, %d changes in %s\n",
		len(script.Ops), kind, res.Core.Secured, res.Core.TotalChanges(),
		res.Core.Times.Total.Round(time.Millisecond))
	doc := rsnsec.NewDeltaDoc("", "", scriptHash, len(script.Ops), baseRep, res.Report)
	return rsnsec.WriteDeltaDoc(os.Stdout, doc)
}
