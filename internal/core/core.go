// Package core orchestrates the complete secure-data-flow method of
// the paper (Figure 2): the RSN is annotated with the user-given
// security specification and pure-scan-path violations are detected and
// resolved (the IOLTS 2018 method); the data-flow analysis computes
// multi-cycle dependencies over the circuit logic with presetting and
// bridging; insecure circuit logic is detected; and finally security
// violations over hybrid scan paths are detected and resolved. The
// result is a (data-flow) secure RSN that still contains every scan
// register of the original network.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pure"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Options configures a Secure run.
type Options struct {
	// Mode selects exact (SAT-classified) dependencies or the
	// structural over-approximation of Section IV-C.
	Mode dep.Mode
	// Log, when non-nil, receives one line per pipeline stage.
	Log func(format string, args ...any)
	// Workers bounds the SAT worker pool of the dependency analysis;
	// <= 0 uses all CPUs.
	Workers int
	// Context cancels the run between SAT queries and pipeline stages;
	// nil means no cancellation.
	Context context.Context
	// Logger, when non-nil, receives fine-grained engine progress
	// (per-stage fan-out and query counts) as structured debug records
	// (see engine.Options.Logger); Log keeps the coarse pipeline
	// summary.
	Logger *slog.Logger
	// Stats, when non-nil, accumulates race-safe per-stage engine
	// instrumentation (wall times and query counts).
	Stats *engine.Stats
	// Tracer, when non-nil, receives hierarchical spans of the run; the
	// whole pipeline nests under one "secure" span (itself a child of
	// TraceParent when given).
	Tracer *obs.Tracer
	// TraceParent is the enclosing span for this run's spans.
	TraceParent *obs.Span
}

// EngineOptions derives the engine configuration of one run, so a
// caller that builds its own hybrid.Analysis (the Table I protocol,
// which spreads one analysis over many specifications) builds it under
// exactly the configuration a Secure call with these options would use.
func (o Options) EngineOptions() engine.Options {
	return engine.Options{Workers: o.Workers, Context: o.Context,
		Logger: o.Logger, Stats: o.Stats, Tracer: o.Tracer, TraceParent: o.TraceParent}
}

// logf writes one pipeline summary line to Log, if set.
func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// StageTimes records wall-clock runtimes per pipeline stage, matching
// the runtime columns of Table I.
type StageTimes struct {
	DependencyCalc time.Duration
	PureStage      time.Duration
	HybridStage    time.Duration
	Total          time.Duration
}

// Report is the outcome of one Secure run.
type Report struct {
	// Secured is true when the returned network is data-flow secure.
	Secured bool
	// InsecureLogic is true when the circuit logic itself violates the
	// specification — no RSN transformation can help (Section III-B).
	InsecureLogic bool
	// InsecureModulePairs lists the offending module pairs when
	// InsecureLogic is set.
	InsecureModulePairs [][2]int
	// ViolatingRegsBefore counts the scan registers with at least one
	// violating flip-flop before the method ran (Table I column 5).
	ViolatingRegsBefore int
	// PureChanges and HybridChanges are the applied change counts
	// (Table I columns 6-8).
	PureChanges, HybridChanges int
	// PureChangeList and HybridChangeList detail every change.
	PureChangeList, HybridChangeList []rsn.Change
	// Analysis is the dependency analysis a Secure or
	// SecureWithAnalysis run used, bound to the run's engine
	// configuration. A caller can keep it, with its cached fixed
	// point, as an incremental session (see exp.SecureDelta).
	Analysis *hybrid.Analysis
	// DepStats carries the dependency computation bookkeeping.
	DepStats dep.Stats
	// PresetDeps counts preset consecutive-flip-flop dependencies.
	PresetDeps int
	// Times records per-stage runtimes.
	Times StageTimes
}

// TotalChanges returns the total number of applied changes.
func (r *Report) TotalChanges() int { return r.PureChanges + r.HybridChanges }

// Secure runs the full pipeline on the network, mutating it into a
// secure RSN. The circuit's internal flip-flops (not connected to the
// scan infrastructure) are bridged during the data-flow analysis.
//
// If the circuit logic itself is insecure the report's InsecureLogic
// flag is set, the network is left unchanged, and no error is returned:
// the condition is a property of the circuit, not a failure of the
// method (such runs are excluded from the paper's averaged results).
func Secure(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, spec *secspec.Spec, opts Options) (*Report, error) {
	// Data-flow analysis (Section III-A): 1-cycle dependencies,
	// presetting, bridging, multi-cycle closure. Computed once, without
	// the reconfigurable RSN connections, and reused across all
	// structural changes.
	return secure(nw, opts, func(eng engine.Options, rep *Report) (*hybrid.Analysis, error) {
		t0 := time.Now()
		an, err := hybrid.NewAnalysisOpts(nw, circuit, internal, spec, opts.Mode, eng)
		if err != nil {
			return nil, fmt.Errorf("core: dependency analysis: %w", err)
		}
		rep.Times.DependencyCalc = time.Since(t0)
		opts.logf("dependency calculation: %d denoted FFs, %d dependencies (%d preset), %d SAT calls",
			an.DepStats.FFsDenoted, an.DepStats.DepsMultiCycle, an.PresetDeps, an.DepStats.SATCalls)
		return an, nil
	})
}

// SecureWithAnalysis runs the pipeline stages after the dependency
// calculation against an existing Analysis — the incremental-session
// entry point: the caller amortizes the expensive fixed-infrastructure
// analysis (and its cached attribute fixed point) across a chain of
// derived networks, each run re-propagating only its dirty cone. nw
// must share the analysis's register set (its wiring may differ
// arbitrarily). The analysis runs under the engine configuration
// derived from opts for this call (workers, stats, tracing,
// cancellation) while keeping its incremental cache, and the report's
// DependencyCalc time is zero — that cost was paid when the analysis
// was built.
func SecureWithAnalysis(an *hybrid.Analysis, nw *rsn.Network, opts Options) (*Report, error) {
	return secure(nw, opts, func(eng engine.Options, _ *Report) (*hybrid.Analysis, error) {
		return an.WithEngine(eng), nil
	})
}

// secure validates the input network and runs the whole pipeline under
// one "secure" span: analysis returns the dependency analysis bound to
// the span's engine configuration; the violating-register census and
// the insecure-logic check (Section III-B) follow, then Resolve.
func secure(nw *rsn.Network, opts Options, analysis func(engine.Options, *Report) (*hybrid.Analysis, error)) (*Report, error) {
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("core: input network invalid: %w", err)
	}
	rep := &Report{}
	start := time.Now()
	st := nw.Stats()
	span := opts.EngineOptions().StartSpan("secure",
		obs.Str("network", nw.Name), obs.Int("registers", int64(st.Registers)),
		obs.Int("scan_ffs", int64(st.ScanFFs)), obs.Int("muxes", int64(st.Muxes)))
	defer span.End()
	defer func() {
		span.SetAttrs(obs.Bool("secured", rep.Secured), obs.Bool("insecure_logic", rep.InsecureLogic),
			obs.Int("pure_changes", int64(rep.PureChanges)), obs.Int("hybrid_changes", int64(rep.HybridChanges)))
	}()
	// Stage spans of this run nest under the pipeline span.
	opts.TraceParent = span
	an, err := analysis(opts.EngineOptions(), rep)
	if err != nil {
		return rep, err
	}
	rep.Analysis = an
	rep.DepStats = an.DepStats
	rep.PresetDeps = an.PresetDeps

	// Violating registers of the original network (pure and hybrid).
	rep.ViolatingRegsBefore = len(an.ViolatingRegisters(nw))
	opts.logf("registers with security violations: %d", rep.ViolatingRegsBefore)

	// Insecure circuit logic: violations that exist over the fixed
	// infrastructure alone.
	if pairs := an.InsecureModulePairs(); len(pairs) > 0 {
		rep.InsecureLogic = true
		rep.InsecureModulePairs = pairs
		rep.Times.Total = time.Since(start)
		opts.logf("insecure circuit logic: %d module pairs — circuit redesign required", len(pairs))
		return rep, nil
	}
	if err := resolve(an, nw, opts, rep); err != nil {
		return rep, err
	}
	rep.Times.Total = time.Since(start)
	return rep, nil
}

// Resolve runs the resolution stages of the method on nw against an,
// whose specification it enforces: pure scan paths (the IOLTS 2018
// stage), then hybrid scan paths, then the check that nw is a valid
// network with no violation left. It mutates nw, and the report carries
// the change lists, their counts, Secured and the PureStage and
// HybridStage times. The caller owns the dependency analysis and the
// exclusion rules Secure applies first (the violating-register census
// and the insecure-logic check): this is the per-run entry point of the
// Table I protocol, which spreads one analysis over many
// specifications. Stage spans nest under opts.TraceParent, and the
// analysis runs under opts' engine configuration while keeping its
// incremental cache.
func Resolve(an *hybrid.Analysis, nw *rsn.Network, opts Options) (*Report, error) {
	rep := &Report{}
	return rep, resolve(an, nw, opts, rep)
}

// resolve is Resolve filling rep in place.
func resolve(an *hybrid.Analysis, nw *rsn.Network, opts Options, rep *Report) error {
	eng := opts.EngineOptions()
	an = an.WithEngine(eng)

	// Pure scan paths (Section III-C first half).
	t0 := time.Now()
	pres, err := pure.Resolve(nw, an.Spec, eng)
	rep.Times.PureStage = time.Since(t0)
	if err != nil {
		return fmt.Errorf("core: pure stage: %w", err)
	}
	rep.PureChanges = len(pres.Changes)
	rep.PureChangeList = pres.Changes
	opts.logf("pure scan paths: %d violations resolved with %d changes", pres.ViolatingBefore, len(pres.Changes))

	// Hybrid scan paths (Sections III-C/III-D, the novel stage).
	t0 = time.Now()
	hres, err := hybrid.Resolve(an, nw)
	rep.Times.HybridStage = time.Since(t0)
	if err != nil {
		return fmt.Errorf("core: hybrid stage: %w", err)
	}
	rep.HybridChanges = len(hres.Changes)
	rep.HybridChangeList = hres.Changes
	opts.logf("hybrid scan paths: %d violating nodes resolved with %d changes", hres.ViolationsBefore, len(hres.Changes))

	if err := nw.Validate(); err != nil {
		return fmt.Errorf("core: network invalid after transformation: %w", err)
	}
	if v := an.Violations(nw); len(v) != 0 {
		return fmt.Errorf("core: %d violations remain after the method", len(v))
	}
	rep.Secured = true
	opts.logf("network is data-flow secure (%d total changes)", rep.TotalChanges())
	return nil
}
