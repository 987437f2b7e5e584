package serve

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/exp"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// AnalysisRequest is the JSON body of POST /v1/analyses. Exactly one
// input form is given:
//
//   - Benchmark names a Table I catalog network; the server runs the
//     paper's protocol (Circuits × Specs random pairs) on it, exactly
//     like rsnbench -table main.
//   - ICL carries an inline network description whose module
//     annotations embed the security specification; the server runs
//     one full Secure pipeline on it. Bench optionally carries the
//     .bench circuit backing the network's instrument links.
//
// Zero-valued protocol parameters fall back to the server's defaults;
// values beyond the server's caps are rejected (400), bounding the
// cost a single request can demand.
type AnalysisRequest struct {
	Benchmark string `json:"benchmark,omitempty"`
	ICL       string `json:"icl,omitempty"`
	Bench     string `json:"bench,omitempty"`

	// Protocol parameters (Benchmark form only).
	Circuits      int     `json:"circuits,omitempty"`
	Specs         int     `json:"specs,omitempty"`
	TargetScanFFs int     `json:"target_scan_ffs,omitempty"`
	Scale         float64 `json:"scale,omitempty"`
	Seed          int64   `json:"seed,omitempty"`

	// Mode selects "exact" (default) or "structural" dependencies.
	Mode string `json:"mode,omitempty"`

	// Priority orders the queue: higher runs first (FIFO within a
	// priority).
	Priority int `json:"priority,omitempty"`
	// TimeoutMS caps this job's run time; the server's job timeout is
	// an upper bound.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// analysis is a resolved, validated submission: the materialized
// structures, the derived run configuration and the content address.
type analysis struct {
	key   string
	label string
	// profile requests on-demand pprof capture around the run: "",
	// "cpu" or "heap" (from the ?profile= query parameter).
	profile string
	// scanFFs is the analyzed structure size, the cost-model feature
	// behind the predicted-backlog load signal (0 when unknown, e.g.
	// delta submissions).
	scanFFs int

	// Benchmark form.
	benchmark *bench.Benchmark
	cfg       exp.RunConfig

	// Inline-ICL form.
	design *icl.Design
	mode   dep.Mode
	// iclText/benchText are the submitted sources, kept for the session
	// record so a delta chain can re-hydrate after a restart.
	iclText   string
	benchText string

	// Delta form (POST /v1/analyses/{id}/delta): an edit script against
	// the session of a finished base analysis. key is derived from
	// (baseKey, script hash).
	baseKey    string
	script     *rsn.EditScript
	scriptHash string

	// Attack form (POST /v1/attacks): an obfuscated network to run the
	// attack analysis against (see attack.go).
	atk *attackRun
}

// schedKey is the scheduler/coalescing key. Profiled submissions get a
// decorated key so they never coalesce with (or get short-circuited
// by) unprofiled runs of the same inputs — a profile request must
// force a real execution. Delta jobs get a "#delta" decoration on top
// of their already-derived key: a delta may only coalesce with the
// identical (base-key, script-hash) pair, never with a plain
// submission. The content address a.key stays undecorated for the
// store.
func (a *analysis) schedKey() string {
	if a.script != nil {
		return a.key + "#delta"
	}
	if a.profile == "" {
		return a.key
	}
	return a.key + "#profile-" + a.profile
}

// resolve validates the request against the server's limits,
// materializes the analysis inputs and computes the content address —
// the SHA-256 over the canonical serialization (netlist.Hasher) of
// every result-determining input. Engine concurrency (worker counts)
// is deliberately NOT part of the key: results are deterministic at
// any worker count, so runs at different parallelism still share one
// cache slot.
func (s *Server) resolve(req *AnalysisRequest) (*analysis, error) {
	mode, err := dep.ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	switch {
	case req.Benchmark != "" && req.ICL != "":
		return nil, fmt.Errorf("benchmark and icl are mutually exclusive")
	case req.Benchmark != "":
		return s.resolveBenchmark(req, mode)
	case req.ICL != "":
		return s.resolveICL(req, mode)
	default:
		return nil, fmt.Errorf("one of benchmark or icl is required")
	}
}

// resolveBenchmark materializes a catalog protocol run.
func (s *Server) resolveBenchmark(req *AnalysisRequest, mode dep.Mode) (*analysis, error) {
	b, ok := bench.ByName(req.Benchmark)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Benchmark)
	}
	lim := s.cfg.limits()
	if req.Circuits == 0 {
		req.Circuits = lim.DefaultCircuits
	}
	if req.Specs == 0 {
		req.Specs = lim.DefaultSpecs
	}
	if req.Scale == 0 && req.TargetScanFFs == 0 {
		req.TargetScanFFs = lim.DefaultScanFFs
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	switch {
	case req.Circuits < 0 || req.Circuits > lim.MaxCircuits:
		return nil, fmt.Errorf("circuits %d out of range (1..%d)", req.Circuits, lim.MaxCircuits)
	case req.Specs < 0 || req.Specs > lim.MaxSpecs:
		return nil, fmt.Errorf("specs %d out of range (1..%d)", req.Specs, lim.MaxSpecs)
	case req.TargetScanFFs < 0 || req.TargetScanFFs > lim.MaxScanFFs:
		return nil, fmt.Errorf("target_scan_ffs %d out of range (1..%d)", req.TargetScanFFs, lim.MaxScanFFs)
	case req.Scale < 0 || req.Scale > 1:
		return nil, fmt.Errorf("scale %g out of range (0..1]", req.Scale)
	}
	cfg := exp.DefaultRunConfig()
	cfg.Circuits = req.Circuits
	cfg.Specs = req.Specs
	cfg.TargetScanFFs = req.TargetScanFFs
	cfg.Scale = req.Scale
	cfg.Seed = req.Seed
	cfg.Mode = mode
	scale := cfg.Scale
	if scale == 0 {
		scale = b.ScaleForTarget(cfg.TargetScanFFs)
	}
	nw := b.Build(scale)
	// An explicit scale must not exceed the scan-FF cap either.
	if ffs := nw.NumScanFFs(); req.Scale > 0 && ffs > lim.MaxScanFFs {
		return nil, fmt.Errorf("scale %g yields %d scan FFs (cap %d)", req.Scale, ffs, lim.MaxScanFFs)
	}

	a := &analysis{label: b.Name, benchmark: &b, cfg: cfg}
	h := netlist.NewHasher()
	h.Section("serve.analysis")
	h.Str("benchmark")
	// The materialized network at the effective scale IS part of the
	// key: a catalog change that alters the generated structure must
	// miss the cache.
	// The protocol runs Circuits×Specs analyses over this structure, so
	// the cost feature scales with the requested pair count.
	a.scanFFs = nw.NumScanFFs() * cfg.Circuits * cfg.Specs
	nw.AppendCanonical(h)
	h.Section("protocol")
	h.Str(b.Name)
	h.Int(cfg.Seed)
	h.Int(int64(cfg.Circuits))
	h.Int(int64(cfg.Specs))
	h.Int(int64(cfg.TargetScanFFs))
	h.Float(cfg.Scale)
	h.Str(fmt.Sprint(cfg.Mode))
	hashCircuitConfig(h, cfg.Circuit)
	hashSpecGen(h, cfg.SpecGen)
	a.key = h.SumHex()
	return a, nil
}

// hashCircuitConfig pins the circuit-attachment parameters that shape
// the generated circuits (and therefore the results).
func hashCircuitConfig(h *netlist.Hasher, c bench.CircuitConfig) {
	h.Section("circuit-config")
	h.Int(int64(c.MaxPortsPerModule))
	h.Int(int64(c.InternalPerModule))
	h.Float(c.InternalFrac)
	h.Int(int64(c.MaxInternalPerModule))
	h.Float(c.CrossEdgesPerModule)
	h.Float(c.ReconvergenceRate)
	h.Float(c.DataSourceFrac)
	h.Int(int64(c.Depth))
	h.Int(int64(c.Inputs))
}

// hashSpecGen pins the random-specification parameters.
func hashSpecGen(h *netlist.Hasher, g secspec.GenConfig) {
	h.Section("specgen")
	h.Int(int64(g.NumCategories))
	h.Float(g.ConfidentialFrac)
	h.Float(g.UntrustedFrac)
}

// resolveICL parses an inline submission and computes its content
// address over the materialized circuit, internal list, network,
// specification and mode.
func (s *Server) resolveICL(req *AnalysisRequest, mode dep.Mode) (*analysis, error) {
	d, err := icl.Load(req.ICL, req.Bench, s.cfg.limits().MaxScanFFs)
	if err != nil {
		return nil, err
	}
	if d.Spec == nil {
		return nil, fmt.Errorf("icl: no embedded security specification (annotate modules with Trust/Accepts)")
	}
	a := &analysis{design: d, mode: mode, label: d.Network.Name, iclText: req.ICL, benchText: req.Bench,
		scanFFs: d.Network.NumScanFFs()}
	h := netlist.NewHasher()
	h.Section("serve.analysis")
	h.Str("icl")
	d.Circuit.AppendCanonical(h)
	h.List(len(d.Internal))
	for _, f := range d.Internal {
		h.Int(int64(f))
	}
	d.Network.AppendCanonical(h)
	d.Spec.AppendCanonical(h)
	h.Str(fmt.Sprint(mode))
	a.key = h.SumHex()
	return a, nil
}
