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
//	rsnsec -icl network.icl [-bench circuit.bench]
//	    reads an ICL description through the loader rsnserved also
//	    uses: with -bench, instrument links bind to the circuit's
//	    flip-flops and every flip-flop no link references is internal
//	    (bridged by the dependency analysis); without it, referenced
//	    names become hold flip-flops. The specification embedded in the
//	    module annotations is used, or a random one is generated.
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
// attacks.
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
// Observability flags, in every mode: -q silences the informational
// stdout lines and the stderr diagnostics (debug-endpoint banner,
// progress, stats) — full machine mode, hard errors still reach
// stderr; -trace writes the hierarchical span journal as JSONL (the
// dependency stages under run, since one analysis serves the whole
// run, then run > secure > stage > query) with query spans sampled per
// -trace-sample, and -debug-addr serves live expvar, Prometheus-text
// metrics and pprof during the run.
//
// -validate FILE checks a stored document against the schema its
// schema field names — a run report, bench record, attack report or
// delta report — prints one line and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	rsnsec "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/version"
)

// engineConfig carries the run-orchestration flags.
type engineConfig struct {
	workers int
	verbose bool
	quiet   bool
	setup   cliutil.Setup
}

// inputConfig names the analyzed network: a catalog benchmark or an
// ICL file with its optional .bench circuit.
type inputConfig struct {
	benchName, iclPath, benchPath string
	scale                         float64
	seed                          int64
}

func main() {
	var (
		benchName = flag.String("benchmark", "", "Table I benchmark name (see rsnbench -table sizes)")
		iclPath   = flag.String("icl", "", "path to an ICL network description")
		scale     = flag.Float64("scale", 1, "structure scale for -benchmark (0..1]")
		seed      = flag.Int64("seed", 1, "circuit generation seed")
		specSeed  = flag.Int64("spec-seed", 1, "security specification seed")
		mode      = flag.String("mode", "exact", "dependency mode: exact or structural")
		outPath   = flag.String("out", "", "write the secured network as ICL to this file")
		deltaPath = flag.String("delta", "", "JSON edit script: secure the base, apply the script, re-secure incrementally and print the delta report on stdout")
		benchPath = flag.String("bench", "", "circuit (.bench) backing the -icl network's instrument links; unlinked flip-flops are internal")
		doVerify  = flag.Bool("verify", false, "re-check the result with the independent verifier")
		explain   = flag.Int("explain", 0, "print up to N violating data flows before resolving")
		workers   = flag.Int("workers", 0, "SAT worker pool size (0 = all CPUs)")
		timeout   = flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
		verbose   = flag.Bool("v", false, "log engine progress at debug level and print a stats table (stderr)")
		quiet     = flag.Bool("q", false, "suppress the informational lines on stdout")
		trace     = flag.String("trace", "", "write the span journal as JSONL to this file")
		traceSmp  = flag.Int("trace-sample", 64, "record every n-th high-frequency query span")
		debugAddr = flag.String("debug-addr", "", "serve expvar, Prometheus metrics and pprof on this address during the run")
		attack    = flag.Bool("attack", false, "run the scan-obfuscation attack analysis and print the attack report on stdout")
		validate  = flag.String("validate", "", "validate a stored document against the schema its schema field names and exit")
		logLevel  = flag.String("log-level", "info", "log level spec: LEVEL[,component=LEVEL...] (debug|info|warn|error|off)")
		logFormat = flag.String("log-format", "text", "log record encoding: text or json")
		showVer   = flag.Bool("version", false, "print version and exit")
	)
	var ac attackConfig
	flag.StringVar(&ac.overlayPath, "overlay", "", "key-gate overlay (rsnsec.obfus-overlay/v1) for -attack")
	flag.IntVar(&ac.gen.KeyBits, "obf-keybits", 0, "generate an overlay with this many key bits when -overlay is not given")
	flag.Float64Var(&ac.gen.MuxShare, "obf-mux-share", -1, "fraction of generated key bits gating mux selects (-1 = default 0.5)")
	flag.BoolVar(&ac.gen.Dynamic, "obf-dynamic", false, "generated overlay uses the dynamic (LFSR) key schedule")
	flag.StringVar(&ac.keyHex, "key", "", "true key as big-endian hex (default: the overlay's embedded key)")
	flag.IntVar(&ac.opts.Horizon, "attack-horizon", 0, "observation window in shift cycles (0 = derived from the network)")
	flag.IntVar(&ac.opts.MaxIterations, "attack-iters", 0, "max ScanSAT refinement iterations (0 = default)")
	flag.Int64Var(&ac.opts.ConflictBudget, "attack-conflicts", 0, "total solver conflict budget for the key recovery (0 = unlimited)")
	flag.BoolVar(&ac.opts.IncludeTimings, "attack-timings", false, "include wall-clock timings in the attack report")
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
	ec := engineConfig{workers: *workers, verbose: *verbose, quiet: *quiet,
		setup: cliutil.Setup{Timeout: *timeout, TracePath: *trace, TraceSample: *traceSmp,
			DebugAddr: *debugAddr, Stats: *verbose, Logger: lg}}
	in := inputConfig{benchName: *benchName, iclPath: *iclPath, benchPath: *benchPath, scale: *scale, seed: *seed}
	switch {
	case *validate != "":
		var line string
		if line, err = cliutil.Validate(*validate); err == nil && !*quiet {
			fmt.Println(line)
		}
	case *attack:
		err = runAttack(in, ac, ec)
	default:
		err = run(in, *specSeed, *mode, *outPath, *deltaPath, *doVerify, *explain, ec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnsec:", err)
		os.Exit(1)
	}
}

// input is a loaded network with the circuit and specification it
// comes with.
type input struct {
	nw       *rsnsec.Network
	circuit  *rsnsec.Netlist // nil for a -benchmark network in attack mode
	internal []rsnsec.FFID
	spec     *rsnsec.Spec // embedded in the ICL file, or nil
	// dataSources marks the attached circuit's data-source modules
	// (-benchmark only), which the generated specification respects.
	dataSources []bool
}

// load reads the network from -benchmark or -icl. A -benchmark network
// gets a random circuit from -seed when withCircuit is set; an -icl
// file goes through rsnsec.LoadICL with its -bench circuit, capped only
// by the flip-flop ID range.
func load(in inputConfig, withCircuit bool, out io.Writer) (*input, error) {
	var r input
	var what string
	switch {
	case in.benchName != "" && in.iclPath != "":
		return nil, fmt.Errorf("-benchmark and -icl are mutually exclusive")
	case in.benchName != "":
		b, ok := rsnsec.BenchmarkByName(in.benchName)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", in.benchName)
		}
		r.nw = b.Build(in.scale)
		if withCircuit {
			att := rsnsec.AttachCircuit(r.nw, rsnsec.DefaultCircuitConfig(), in.seed)
			r.circuit, r.internal, r.dataSources = att.Circuit, att.Internal, att.DataSources
		}
		what = fmt.Sprintf("benchmark %s at scale %g", in.benchName, in.scale)
	case in.iclPath != "":
		src, err := os.ReadFile(in.iclPath)
		if err != nil {
			return nil, err
		}
		var bench []byte
		if in.benchPath != "" {
			if bench, err = os.ReadFile(in.benchPath); err != nil {
				return nil, err
			}
		}
		d, err := rsnsec.LoadICL(string(src), string(bench), math.MaxInt32)
		if err != nil {
			return nil, err
		}
		r.nw, r.spec = d.Network, d.Spec
		if withCircuit {
			r.circuit, r.internal = d.Circuit, d.Internal
		}
		what = "network " + r.nw.Name
	default:
		return nil, fmt.Errorf("one of -benchmark or -icl is required")
	}
	st := r.nw.Stats()
	fmt.Fprintf(out, "%s: %d registers, %d scan FFs, %d muxes", what, st.Registers, st.ScanFFs, st.Muxes)
	if r.circuit != nil {
		fmt.Fprintf(out, ", circuit %d FFs", r.circuit.NumFFs())
	}
	fmt.Fprintln(out)
	return &r, nil
}

func run(in inputConfig, specSeed int64, modeName, outPath, deltaPath string, doVerify bool, explain int, ec engineConfig) (err error) {
	m, err := rsnsec.ParseMode(modeName)
	if err != nil {
		return err
	}
	out, errw := cliutil.Outputs(ec.quiet)
	r, err := ec.setup.Start(obs.Str("tool", "rsnsec"), obs.Int("workers", int64(ec.workers)))
	if err != nil {
		return err
	}
	defer cliutil.CloseFirstErr(&err, r.Close)
	logTo := func(f string, a ...any) { fmt.Fprintf(out, "  %s\n", fmt.Sprintf(f, a...)) }
	secOpts := rsnsec.Options{Mode: m, Log: logTo, Workers: ec.workers, Context: r.Ctx, Stats: r.Stats,
		Tracer: r.Tracer, TraceParent: r.Span, Logger: olog.Component(ec.setup.Logger, "engine")}
	engOpts := secOpts.EngineOptions()

	ld, err := load(in, true, out)
	if err != nil {
		return err
	}
	nw, circuit, internal, spec := ld.nw, ld.circuit, ld.internal, ld.spec
	if spec != nil {
		fmt.Fprintln(out, "using the security specification embedded in the ICL file")
	}
	// One dependency analysis serves the whole run: choosing a
	// specification, -explain and securing. It does not depend on the
	// specification, so each step binds its own with WithSpec.
	t0 := time.Now()
	analysis, err := rsnsec.NewAnalysisOpts(nw, circuit, internal, nil, m, engOpts)
	if err != nil {
		return err
	}
	depTime := time.Since(t0)
	genSpec := func(seed int64) *rsnsec.Spec {
		if ld.dataSources != nil {
			return rsnsec.GenerateSpecWithRoles(len(nw.Modules), ld.dataSources, rsnsec.DefaultSpecGenConfig(), seed)
		}
		return rsnsec.GenerateSpec(len(nw.Modules), rsnsec.DefaultSpecGenConfig(), seed)
	}
	showFlows := func(sp *rsnsec.Spec) error {
		if explain <= 0 {
			return nil
		}
		exps := analysis.WithSpec(sp).ExplainAll(nw)
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
	// secure is rsnsec.Secure on the run's analysis: it logs the same
	// dependency calculation line, and the report's times include the
	// analysis build.
	secure := func(nw *rsnsec.Network) (*rsnsec.Report, error) {
		secOpts.LogAnalysis(analysis)
		rep, err := rsnsec.SecureWithAnalysis(analysis.WithSpec(spec), nw, secOpts)
		if rep != nil {
			rep.Times.DependencyCalc = depTime
			rep.Times.Total += depTime
		}
		return rep, err
	}
	if deltaPath != "" {
		if outPath != "" || doVerify {
			return fmt.Errorf("-delta is incompatible with -out and -verify (its result is the delta report, not a transformed network)")
		}
		return runDelta(nw, secure, deltaPath, m, secOpts, out)
	}
	rep, err := secure(nw)
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
		name := func(ff rsnsec.FFID) string { return circuit.FFs[ff].Name }
		if err := cliutil.WriteOutput(outPath, func(w io.Writer) error {
			return rsnsec.WriteICLWithSpec(w, nw, spec, name)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "secured network written to %s\n", outPath)
	}
	if ec.verbose {
		fmt.Fprintf(errw, "engine stats:\n%s\n", r.Stats)
	}
	return nil
}

// attackConfig carries the -attack mode flags.
type attackConfig struct {
	overlayPath, keyHex string
	gen                 rsnsec.ObfusGenConfig // generated overlay (-obf-*)
	opts                rsnsec.AttackOptions  // attack budgets (-attack-*)
}

// runAttack is the -attack mode: resolve the network and overlay, run
// the attack analysis and print the rsnsec.attack-report/v1 document on
// stdout (under -q the only bytes stdout carries).
func runAttack(in inputConfig, ac attackConfig, ec engineConfig) (err error) {
	out, errw := cliutil.Outputs(ec.quiet)
	r, err := ec.setup.Start(obs.Str("tool", "rsnsec"), obs.Str("mode", "attack"))
	if err != nil {
		return err
	}
	defer cliutil.CloseFirstErr(&err, r.Close)
	ld, err := load(in, false, out)
	if err != nil {
		return err
	}
	nw := ld.nw

	var (
		ov      *rsnsec.Obfuscation
		trueKey []bool
	)
	switch {
	case ac.overlayPath != "" && ac.gen.KeyBits > 0:
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
	case ac.gen.KeyBits > 0:
		ov, trueKey, err = rsnsec.ObfuscateNetwork(nw, ac.gen, in.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generated overlay (seed %d): %d key bits, %d gates, dynamic=%v\n",
			in.seed, ov.NumKeyBits, len(ov.Gates), ov.Dynamic)
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

	opts := ac.opts
	opts.Stats, opts.Tracer, opts.TraceParent = r.Stats, r.Tracer, r.Span
	rep, err := rsnsec.RunAttackAnalysis(r.Ctx, "rsnsec", nw, ov, trueKey, opts)
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
	if ec.verbose {
		fmt.Fprintf(errw, "engine stats:\n%s\n", r.Stats)
	}
	return rsnsec.WriteAttackReport(os.Stdout, rep)
}

// runDelta is the -delta mode: secure the base network on a clone (so
// the base wiring survives for the edit), apply the script, re-secure
// the derived network through the incremental path, and print the
// rsnsec.delta-report/v1 document on stdout — under -q the only bytes
// stdout carries, so the mode pipes into jq and friends.
func runDelta(nw *rsnsec.Network, secure func(*rsnsec.Network) (*rsnsec.Report, error), deltaPath string, m rsnsec.Mode, secOpts rsnsec.Options, out io.Writer) error {
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
	base, err := secure(nw.Clone())
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
