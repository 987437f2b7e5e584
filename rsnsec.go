// Package rsnsec analyzes and transforms reconfigurable scan networks
// (RSNs, IEEE Std 1687) so that no pure or hybrid scan path can move
// confidential data into untrusted instruments — a from-scratch
// reproduction of "On Secure Data Flow in Reconfigurable Scan
// Networks" (Raiola et al., DATE 2019).
//
// The library bundles everything the method needs, built on the
// standard library alone:
//
//   - a scan network model with capture/shift/update semantics,
//     active-path configuration and structural transformation
//     (NewNetwork, Simulate via NewNetworkSimulator);
//   - a gate-level circuit model with simulation and seeded random
//     generation (NewNetlist, GenerateCircuit);
//   - a CDCL SAT solver driving the exact functional-vs-structural
//     dependency classification;
//   - the security specification of trust categories and accepted
//     sets (NewSpec, GenerateSpec);
//   - the full secure-data-flow pipeline (Secure): pure-path
//     detection/resolution, SAT-based multi-cycle dependency analysis
//     with presetting and bridging, insecure-circuit-logic detection,
//     and hybrid-path detection/resolution at flip-flop granularity;
//   - an ICL-dialect loader, parser and writer (LoadICL, ParseICL,
//     WriteICL);
//   - the 22 benchmark networks of the paper's Table I (Catalog) and
//     the experimental protocol that regenerates the paper's results
//     (RunBenchmark, RunBridging, RunApprox).
//
// Quickstart:
//
//	ex := rsnsec.RunningExample()
//	rep, err := rsnsec.Secure(ex.Network, ex.Circuit, ex.Internal, ex.Spec, rsnsec.Options{})
//	// rep.PureChanges, rep.HybridChanges, rep.Secured ...
package rsnsec

import (
	"context"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/hybrid"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/obs/perfrec"
	"repro/internal/obs/reportdiff"
	"repro/internal/paperex"
	"repro/internal/rsn"
	"repro/internal/secspec"
	"repro/internal/verify"
)

// Scan network model.
type (
	// Network is a reconfigurable scan network.
	Network = rsn.Network
	// Ref references a network element (register, mux, or port).
	Ref = rsn.Ref
	// Sink is one rewirable input pin of a network element.
	Sink = rsn.Sink
	// ScanConfig selects one input per scan multiplexer.
	ScanConfig = rsn.Config
	// NetworkSimulator executes capture/shift/update phases.
	NetworkSimulator = rsn.Simulator
	// NetworkStats summarizes a network's structure.
	NetworkStats = rsn.Stats
)

// Port references and element constructors, re-exported.
var (
	ScanIn  = rsn.ScanIn
	ScanOut = rsn.ScanOut
)

// NewNetwork returns an empty scan network.
func NewNetwork(name string) *Network { return rsn.New(name) }

// RegRef returns a reference to register id.
func RegRef(id int) Ref { return rsn.Reg(id) }

// MuxRef returns a reference to mux id.
func MuxRef(id int) Ref { return rsn.Mx(id) }

// NewNetworkSimulator returns a simulator for the network, optionally
// coupled to a circuit simulator (may be nil).
func NewNetworkSimulator(nw *Network, circuit *CircuitSimulator) *NetworkSimulator {
	return rsn.NewSimulator(nw, circuit)
}

// Circuit model.
type (
	// Netlist is a gate-level sequential circuit.
	Netlist = netlist.Netlist
	// FFID identifies a circuit flip-flop.
	FFID = netlist.FFID
	// NodeID identifies a netlist node.
	NodeID = netlist.NodeID
	// GateType enumerates combinational gate functions.
	GateType = netlist.GateType
	// CircuitSimulator evaluates a netlist cycle by cycle.
	CircuitSimulator = netlist.Simulator
	// CircuitGenConfig parameterizes random circuit generation.
	CircuitGenConfig = netlist.GenConfig
	// GeneratedCircuit is a random circuit with its RSN-facing and
	// internal flip-flops identified.
	GeneratedCircuit = netlist.Generated
)

// Gate types, re-exported.
const (
	And  = netlist.And
	Or   = netlist.Or
	Nand = netlist.Nand
	Nor  = netlist.Nor
	Xor  = netlist.Xor
	Xnor = netlist.Xnor
	Not  = netlist.Not
	Buf  = netlist.Buf
	Mux  = netlist.Mux
	Maj  = netlist.Maj
)

// NoFF marks the absence of a circuit flip-flop link.
const NoFF = netlist.NoFF

// NewNetlist returns an empty circuit.
func NewNetlist() *Netlist { return netlist.New() }

// NewCircuitSimulator returns a simulator over the circuit.
func NewCircuitSimulator(n *Netlist) *CircuitSimulator { return netlist.NewSimulator(n) }

// GenerateCircuit builds a seeded random reconvergent circuit.
func GenerateCircuit(cfg CircuitGenConfig, seed int64) *GeneratedCircuit {
	return netlist.Generate(cfg, seed)
}

// Security specification.
type (
	// Spec annotates modules with trust categories and accepted sets.
	Spec = secspec.Spec
	// Category is a trust category.
	Category = secspec.Category
	// CatSet is a set of trust categories.
	CatSet = secspec.CatSet
	// SpecGenConfig parameterizes random specification generation.
	SpecGenConfig = secspec.GenConfig
)

// NewSpec returns an unrestricted specification over the given module
// and category counts.
func NewSpec(numModules, numCategories int) *Spec { return secspec.New(numModules, numCategories) }

// NewCatSet builds a category set.
func NewCatSet(cats ...Category) CatSet { return secspec.NewCatSet(cats...) }

// AllCats returns the set of all categories below n.
func AllCats(n int) CatSet { return secspec.AllCats(n) }

// GenerateSpec builds a seeded random specification.
func GenerateSpec(numModules int, cfg SpecGenConfig, seed int64) *Spec {
	return secspec.Generate(numModules, cfg, seed)
}

// DefaultSpecGenConfig mirrors the paper's random specifications.
func DefaultSpecGenConfig() SpecGenConfig { return secspec.DefaultGenConfig() }

// GenerateSpecWithRoles builds a random specification whose
// confidential annotations align with the circuit's data-source modules
// (see Attachment.DataSources) — the experimental protocol's generator.
func GenerateSpecWithRoles(numModules int, dataSources []bool, cfg SpecGenConfig, seed int64) *Spec {
	return secspec.GenerateWithRoles(numModules, dataSources, cfg, seed)
}

// The method.
type (
	// Options configures Secure.
	Options = core.Options
	// Report is the outcome of Secure.
	Report = core.Report
	// Mode selects exact or structurally over-approximated
	// dependencies.
	Mode = dep.Mode
	// Analysis is the reusable fixed-infrastructure data-flow analysis.
	Analysis = hybrid.Analysis
	// Census is the opt-in two-relation dependency census of an
	// analysis: path and structural dependencies, bridged and closed.
	Census = dep.Census
	// Change describes one transformation applied by the pure or the
	// hybrid resolution stage (Report.PureChangeList,
	// Report.HybridChangeList).
	Change = rsn.Change
)

// Dependency modes, re-exported.
const (
	Exact            = dep.Exact
	StructuralApprox = dep.StructuralApprox
)

// ParseMode reads a mode as spelled on command lines and in request
// bodies: "exact" (also the empty default) or "structural".
func ParseMode(s string) (Mode, error) { return dep.ParseMode(s) }

// Secure runs the complete pipeline of the paper (Figure 2) on the
// network, transforming it into a data-flow secure RSN. internal lists
// the circuit's flip-flops that are not connected to the scan
// infrastructure (they are bridged during the dependency analysis).
func Secure(nw *Network, circuit *Netlist, internal []FFID, spec *Spec, opts Options) (*Report, error) {
	return core.Secure(nw, circuit, internal, spec, opts)
}

// NewAnalysis exposes the underlying data-flow analysis for callers
// that detect violations without transforming the network.
func NewAnalysis(nw *Network, circuit *Netlist, internal []FFID, spec *Spec, mode Mode) *Analysis {
	return hybrid.NewAnalysis(nw, circuit, internal, spec, mode)
}

// NewCensus runs the dependency census of the analysis NewAnalysis
// builds: it classifies every multi-cycle dependency as path or only
// structural (Census.Clo.Kind), which the analysis itself does not
// keep.
func NewCensus(nw *Network, circuit *Netlist, internal []FFID, mode Mode) *Census {
	// The background context never cancels, so the error is always nil.
	c, _ := hybrid.NewCensus(nw, circuit, internal, mode, engine.Options{})
	return c
}

// Engine orchestration: worker pools, cancellation and per-stage
// instrumentation of the analysis pipeline.
type (
	// EngineOptions configures worker count, cancellation context,
	// progress logger, stats collection and tracing of one analysis
	// run.
	EngineOptions = engine.Options
	// EngineStats accumulates race-safe per-stage wall times and query
	// counts; its String method renders an aligned table.
	EngineStats = engine.Stats
	// EngineStage is one stage's totals in an EngineStats snapshot.
	EngineStage = engine.StageSnapshot
)

// NewEngineStats returns an empty per-stage stats collector.
func NewEngineStats() *EngineStats { return engine.NewStats() }

// Observability: structured run tracing, a metrics registry with
// expvar/Prometheus exposition, an optional pprof debug server, and
// machine-readable run reports.
type (
	// Tracer emits hierarchical spans (run > circuit > stage > query)
	// to a pluggable sink, with per-name sampling for high-frequency
	// query spans.
	Tracer = obs.Tracer
	// TraceSpan is one timed region of the run hierarchy.
	TraceSpan = obs.Span
	// TraceAttr is one span attribute.
	TraceAttr = obs.Attr
	// TraceSink receives finished span events.
	TraceSink = obs.Sink
	// JSONLTraceSink is the buffered JSON-lines span journal.
	JSONLTraceSink = obs.BufferedJSONLSink
	// TraceEvent is one finished span as handed to the sink.
	TraceEvent = obs.Event
	// MetricsRegistry holds counters, gauges and histograms and renders
	// them as Prometheus text or expvar JSON.
	MetricsRegistry = obs.Registry
	// DebugServer is the -debug-addr HTTP listener (expvar, Prometheus
	// text metrics, net/http/pprof).
	DebugServer = obs.DebugServer
	// RunReport is the schema-versioned machine-readable outcome of an
	// experimental run.
	RunReport = obs.RunReport
)

// RunReportSchema is the run-report schema identifier accepted by
// ReadRunReport.
const RunReportSchema = obs.ReportSchema

// NewTracer returns a tracer emitting finished spans to sink.
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewJSONLTraceSink returns a buffered sink writing one JSON event per
// line; call its Flush, which reports the first write error, before w
// closes.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink { return obs.NewBufferedJSONLSink(w) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEngineStatsOn returns a per-stage stats collector registering its
// counters in the given registry, so a debug server can expose them
// live during a run.
func NewEngineStatsOn(reg *MetricsRegistry) *EngineStats { return engine.NewStatsOn(reg) }

// StartDebugServer serves /metrics (Prometheus text), /debug/vars
// (expvar) and /debug/pprof/ on addr in a background goroutine.
func StartDebugServer(addr string, reg *MetricsRegistry) (*DebugServer, error) {
	return obs.StartDebug(addr, reg)
}

// BuildRunReport assembles the machine-readable report of a protocol
// run from per-benchmark results and the engine stats (may be nil).
func BuildRunReport(tool, table string, cfg RunConfig, results []*RunResult, stats *EngineStats) *RunReport {
	return exp.BuildReport(tool, table, cfg, results, stats)
}

// WriteRunReport validates a report and writes it as indented JSON.
func WriteRunReport(w io.Writer, r *RunReport) error { return obs.WriteDoc(w, r) }

// ReadRunReport parses and validates a report.
func ReadRunReport(r io.Reader) (*RunReport, error) { return obs.ReadDoc[RunReport](r) }

// Performance observatory: schema-versioned bench records with
// noise-aware regression gating.
type (
	// BenchRecord is the schema-versioned performance record of a
	// protocol run: per-stage wall-time medians with MAD noise
	// estimates, SAT totals, memory peaks and the environment
	// fingerprint.
	BenchRecord = perfrec.Record
	// BenchRegression is one gated delta that exceeded its noise
	// allowance.
	BenchRegression = perfrec.Regression
	// BenchLimits parameterizes the noise-aware regression gate.
	BenchLimits = perfrec.Limits
	// BenchEnvironment is a record's machine fingerprint.
	BenchEnvironment = perfrec.Environment
	// BenchCollectOptions parameterizes CollectBenchRecord.
	BenchCollectOptions = exp.CollectOptions
)

// BenchRecordSchema is the bench-record schema identifier accepted by
// ReadBenchRecord.
const BenchRecordSchema = perfrec.BenchSchema

// CollectBenchRecord measures the Table I protocol opts.Reps times per
// benchmark under private instrumentation and returns the assembled
// schema-valid bench record; stage wall times come from real trace
// spans of the runs.
func CollectBenchRecord(ctx context.Context, benchmarks []Benchmark, cfg RunConfig, opts BenchCollectOptions) (*BenchRecord, error) {
	return exp.CollectBenchRecord(ctx, benchmarks, cfg, opts)
}

// CompareBenchRecords gates new against old and returns every
// regression exceeding max(threshold·old, k·MAD) (plus the memory
// gate); the zero Limits value uses the defaults.
func CompareBenchRecords(old, new *BenchRecord, lim BenchLimits) []BenchRegression {
	return perfrec.Compare(old, new, lim)
}

// WriteBenchRecord validates a record and writes it as indented JSON.
func WriteBenchRecord(w io.Writer, r *BenchRecord) error { return obs.WriteDoc(w, r) }

// ReadBenchRecord parses and validates a bench record.
func ReadBenchRecord(r io.Reader) (*BenchRecord, error) { return obs.ReadDoc[BenchRecord](r) }

// CaptureBenchEnvironment fingerprints the current machine and
// toolchain for a bench record.
func CaptureBenchEnvironment(commit string) BenchEnvironment {
	return perfrec.CaptureEnvironment(commit)
}

// FormatBenchRegressions renders the gate outcome, one line per
// regression ("performance gate clean" when empty).
func FormatBenchRegressions(regs []BenchRegression) string { return perfrec.FormatRegressions(regs) }

// NewAnalysisOpts is NewAnalysis under an engine configuration: the
// SAT-classified 1-cycle dependencies fan out over the engine's worker
// pool, cancellation is honored between SAT queries, and per-stage
// stats accumulate into opts.Stats.
func NewAnalysisOpts(nw *Network, circuit *Netlist, internal []FFID, spec *Spec, mode Mode, opts EngineOptions) (*Analysis, error) {
	return hybrid.NewAnalysisOpts(nw, circuit, internal, spec, mode, opts)
}

// Incremental analysis sessions: first-class edit scripts over the
// scan network and the incremental re-secure path that skips the
// dependency calculation for wiring-only edits. rsnserved persists a
// session as its sources and script chain and rebuilds the analysis and
// its fixed point from them. The aliased Analysis type carries the
// session methods directly: ApplyDelta and WithEngine.
type (
	// EditScript is an ordered list of structural edit operations on a
	// network, with a canonical content-addressable encoding
	// (AppendCanonical/CanonicalHash) and Apply producing the derived
	// network without mutating the base.
	EditScript = rsn.EditScript
	// EditOp is one edit-script operation.
	EditOp = rsn.EditOp
	// DeltaResult is the outcome of one incremental SecureDelta run.
	DeltaResult = exp.DeltaResult
	// DeltaDoc pairs a delta run's report with the structured diff
	// against its parent report — the rsnsec.delta-report/v1 document
	// served by rsnserved and printed by rsnsec -delta.
	DeltaDoc = reportdiff.DeltaDoc
	// ReportDiff is the structured comparison of two run reports.
	ReportDiff = reportdiff.Diff
)

// Edit-script operations, re-exported.
const (
	OpCutReconnect = rsn.OpCutReconnect
	OpConnect      = rsn.OpConnect
	OpAddRegister  = rsn.OpAddRegister
)

// DeltaReportSchema identifies the incremental-session delta document.
const DeltaReportSchema = reportdiff.DeltaSchema

// ErrStructuralDelta reports that an edit script changed the register
// set, so the fixed analysis infrastructure cannot absorb it and a
// fresh Analysis is required (SecureDelta handles this fallback
// automatically).
var ErrStructuralDelta = hybrid.ErrStructuralDelta

// ParseEditScript parses a JSON edit script, rejecting unknown fields
// and empty scripts, and returns it canonicalized.
func ParseEditScript(data []byte) (*EditScript, error) { return rsn.ParseEditScript(data) }

// ParseElemRef parses a network element reference ("SI", "SO", "R<n>",
// "M<n>", case-insensitive) — the spelling edit-script pins use.
func ParseElemRef(s string) (Ref, error) { return rsn.ParseRef(s) }

// SecureWithAnalysis is Secure on a caller-built analysis: the
// dependency matrices and the cached attribute fixed point are reused,
// so repeated runs over rewired variants of one network skip the
// dependency calculation (Times.DependencyCalc stays zero).
func SecureWithAnalysis(an *Analysis, nw *Network, opts Options) (*Report, error) {
	return core.SecureWithAnalysis(an, nw, opts)
}

// SecureDelta applies an edit script to base and runs the resolution
// pipeline on the derived network, reusing an's fixed infrastructure
// whenever the script only rewires; scripts that add registers fall
// back to a fresh analysis. The returned Derived network keeps the
// pre-resolution wiring for chaining further deltas.
func SecureDelta(tool, label string, an *Analysis, base *Network, script *EditScript, opts Options) (*DeltaResult, error) {
	return exp.SecureDelta(tool, label, an, base, script, opts)
}

// SecureRunReport renders one pipeline outcome as a one-row
// rsnsec.run-report/v1 document (stats may be nil).
func SecureRunReport(tool, name string, mode Mode, st NetworkStats, rep *Report, stats *EngineStats) *RunReport {
	return exp.SecureReport(tool, name, mode, st, rep, stats)
}

// NewDeltaDoc assembles a delta document, computing the diff of the
// parent report against the delta run's report. baseKey and key are
// the content addresses when the document comes from rsnserved; CLI
// callers leave them empty.
func NewDeltaDoc(baseKey, key, scriptHash string, scriptOps int, parent, report *RunReport) *DeltaDoc {
	return reportdiff.NewDeltaDoc(baseKey, key, scriptHash, scriptOps, parent, report)
}

// WriteDeltaDoc validates and writes the document as indented JSON.
func WriteDeltaDoc(w io.Writer, d *DeltaDoc) error { return obs.WriteDoc(w, d) }

// ReadDeltaDoc decodes and validates a delta document.
func ReadDeltaDoc(r io.Reader) (*DeltaDoc, error) { return obs.ReadDoc[DeltaDoc](r) }

// CompareRunReports computes the structured diff of two run reports.
func CompareRunReports(old, new *RunReport) *ReportDiff { return reportdiff.Compare(old, new) }

// Explanation is a human-readable account of one security violation.
type Explanation = hybrid.Explanation

// ICL round trip.

// ParseICL reads a network from its ICL-dialect description. lookupFF
// resolves circuit flip-flop names in CaptureSource/UpdateSink items
// and may be nil for networks without instrument links.
func ParseICL(src string, lookupFF func(string) (FFID, bool)) (*Network, error) {
	return icl.ParseNetwork(src, lookupFF)
}

// WriteICL renders a network in the ICL dialect.
func WriteICL(w io.Writer, nw *Network, ffName func(FFID) string) error {
	return icl.Write(w, nw, ffName)
}

// ICLDesign is a loaded ICL description: network, embedded
// specification (nil when unannotated), the circuit its instrument
// links bind to, and that circuit's internal flip-flops.
type ICLDesign = icl.Design

// LoadICL reads an ICL description and, when benchText is non-empty,
// the .bench circuit behind its instrument links; flip-flops no link
// references are internal. Without a circuit, referenced names become
// hold flip-flops. A network declaring more than maxScanFFs scan
// flip-flops is refused before it is built.
func LoadICL(src, benchText string, maxScanFFs int) (*ICLDesign, error) {
	return icl.Load(src, benchText, maxScanFFs)
}

// WriteICLWithSpec renders a network together with its security
// specification as module Trust/Accepts annotations.
func WriteICLWithSpec(w io.Writer, nw *Network, spec *Spec, ffName func(FFID) string) error {
	return icl.WriteWithSpec(w, nw, spec, ffName)
}

// WriteBench renders a circuit in the classic ISCAS-89 .bench format
// (with "# @module" pragmas carrying module membership).
func WriteBench(w io.Writer, n *Netlist) error { return netlist.WriteBench(w, n) }

// ParseBench reads a circuit from .bench format.
func ParseBench(r io.Reader) (*Netlist, error) { return netlist.ParseBench(r) }

// Benchmarks and experiments.
type (
	// Benchmark describes one reconstructable Table I network.
	Benchmark = bench.Benchmark
	// BenchmarkFamily distinguishes BASTION from industrial networks.
	BenchmarkFamily = bench.Family
	// CircuitConfig controls random circuit attachment.
	CircuitConfig = bench.CircuitConfig
	// Attachment is a circuit wired to a benchmark network.
	Attachment = bench.Attachment
	// RunConfig parameterizes the experimental protocol.
	RunConfig = exp.RunConfig
	// RunResult is one Table I row of measured averages.
	RunResult = exp.Result
	// BridgingResult measures the Section III-A bridging reductions.
	BridgingResult = exp.BridgingResult
	// ApproxResult measures the Section IV-C approximation overheads.
	ApproxResult = exp.ApproxResult
)

// Benchmark families, re-exported.
const (
	BastionFamily    = bench.Bastion
	IndustrialFamily = bench.Industrial
)

// Catalog returns the 22 benchmarks of Table I.
func Catalog() []Benchmark { return bench.Catalog() }

// BenchmarkByName finds a benchmark in the catalog.
func BenchmarkByName(name string) (Benchmark, bool) { return bench.ByName(name) }

// DefaultCircuitConfig returns the default circuit attachment
// parameters.
func DefaultCircuitConfig() CircuitConfig { return bench.DefaultCircuitConfig() }

// AttachCircuit generates and links a random circuit to the network.
func AttachCircuit(nw *Network, cfg CircuitConfig, seed int64) *Attachment {
	return bench.AttachCircuit(nw, cfg, seed)
}

// DefaultRunConfig returns the scaled default experimental protocol.
func DefaultRunConfig() RunConfig { return exp.DefaultRunConfig() }

// QuickRunConfig returns a fast smoke-test protocol.
func QuickRunConfig() RunConfig { return exp.QuickRunConfig() }

// RunBenchmark executes the Table I protocol for one benchmark.
func RunBenchmark(b Benchmark, cfg RunConfig) (*RunResult, error) { return exp.RunBenchmark(b, cfg) }

// RunBenchmarkCtx is RunBenchmark with cancellation between SAT
// queries and (circuit, spec) pairs.
func RunBenchmarkCtx(ctx context.Context, b Benchmark, cfg RunConfig) (*RunResult, error) {
	return exp.RunBenchmarkCtx(ctx, b, cfg)
}

// RunProtocolCtx executes the Table I protocol over a benchmark list —
// the shared driver behind rsnbench's main table and the rsnserved
// analysis jobs. observe (may be nil) receives every finished
// per-benchmark result in order.
func RunProtocolCtx(ctx context.Context, benchmarks []Benchmark, cfg RunConfig, observe func(*RunResult)) ([]*RunResult, error) {
	return exp.RunProtocol(ctx, benchmarks, cfg, observe)
}

// RunBridging measures the bridging reductions for one benchmark.
func RunBridging(b Benchmark, cfg RunConfig) (*BridgingResult, error) {
	return exp.RunBridging(b, cfg)
}

// RunBridgingCtx is RunBridging with cancellation.
func RunBridgingCtx(ctx context.Context, b Benchmark, cfg RunConfig) (*BridgingResult, error) {
	return exp.RunBridgingCtx(ctx, b, cfg)
}

// RunApprox compares exact against structurally over-approximated
// dependencies for one benchmark.
func RunApprox(b Benchmark, cfg RunConfig) (*ApproxResult, error) { return exp.RunApprox(b, cfg) }

// RunApproxCtx is RunApprox with cancellation.
func RunApproxCtx(ctx context.Context, b Benchmark, cfg RunConfig) (*ApproxResult, error) {
	return exp.RunApproxCtx(ctx, b, cfg)
}

// Canonical serialization: versioned, framed SHA-256 digests of
// analysis inputs. Netlist, Network and Spec expose AppendCanonical;
// the digest is the content address rsnserved caches results under.
type CanonHasher = netlist.Hasher

// CanonVersion is the versioned prefix of the canonical encoding.
const CanonVersion = netlist.CanonVersion

// NewCanonHasher returns a hasher seeded with the CanonVersion prefix.
func NewCanonHasher() *CanonHasher { return netlist.NewHasher() }

// Verification.
type (
	// VerifyResult is the outcome of the independent security check.
	VerifyResult = verify.Result
	// CounterexampleFlow is a concrete leaking data path.
	CounterexampleFlow = verify.Flow
)

// Verify independently checks the network against the specification
// with a direct reachability analysis over exhaustively-validated
// functional edges — a second implementation cross-validating Secure.
func Verify(nw *Network, circuit *Netlist, spec *Spec) *VerifyResult {
	return verify.Check(nw, circuit, spec)
}

// RunningExample builds the paper's running example (Figures 1/4/5).
type RunningExampleParts = paperex.Example

// RunningExample returns the running example's circuit, network,
// specification and internal flip-flops.
func RunningExample() *RunningExampleParts { return paperex.New() }

// Scan obfuscation and attack analysis (the internal/obfus subsystem):
// key-gated scan primitives, ScanSAT-style key recovery and the GF(2)
// flush analysis.
type (
	// Obfuscation is a key-gate overlay on a scan network.
	Obfuscation = rsn.Obfuscation
	// ObfusKeyGate is one key-controlled gate (XOR or mux select).
	ObfusKeyGate = rsn.KeyGate
	// ObfusGenConfig drives deterministic overlay generation.
	ObfusGenConfig = obfus.GenConfig
	// AttackOptions parameterizes RunAttackAnalysis.
	AttackOptions = exp.AttackOptions
	// AttackReport is the rsnsec.attack-report/v1 document.
	AttackReport = obfus.Report
	// KeyRecoveryResult reports a ScanSAT key-recovery run.
	KeyRecoveryResult = obfus.KeyRecoveryResult
	// FlushAttackResult reports a GF(2) flush-attack run.
	FlushAttackResult = obfus.FlushResult
)

// Attack-analysis schema identifiers.
const (
	AttackReportSchema = obfus.ReportSchema
	ObfusOverlaySchema = rsn.ObfuscationSchema
)

// ObfuscateNetwork deterministically overlays key gates on a network,
// returning the overlay and the defender's true key.
func ObfuscateNetwork(nw *Network, cfg ObfusGenConfig, seed int64) (*Obfuscation, []bool, error) {
	return obfus.ObfuscateNetwork(nw, cfg, seed)
}

// ParseObfuscationOverlay reads an rsnsec.obfus-overlay/v1 document,
// resolving element names against the network; the returned key is nil
// when the overlay carries none.
func ParseObfuscationOverlay(data []byte, nw *Network) (*Obfuscation, []bool, error) {
	return rsn.ParseObfuscation(data, nw)
}

// MarshalObfuscationOverlay writes the overlay (and the optional
// defender key) as an rsnsec.obfus-overlay/v1 document.
func MarshalObfuscationOverlay(ov *Obfuscation, nw *Network, key []bool) ([]byte, error) {
	return rsn.MarshalObfuscation(ov, nw, key)
}

// RunAttackAnalysis executes the ScanSAT and flush attack stages and
// assembles the rsnsec.attack-report/v1 document.
func RunAttackAnalysis(ctx context.Context, tool string, nw *Network, ov *Obfuscation, trueKey []bool, opts AttackOptions) (*AttackReport, error) {
	return exp.RunAttackAnalysis(ctx, tool, nw, ov, trueKey, opts)
}

// WriteAttackReport validates an attack report and writes it as indented JSON.
func WriteAttackReport(w io.Writer, r *AttackReport) error { return obs.WriteDoc(w, r) }

// ReadAttackReport parses and validates an attack report.
func ReadAttackReport(r io.Reader) (*AttackReport, error) { return obs.ReadDoc[AttackReport](r) }

// ObfusKeyFromSeed derives a deterministic key of n bits from a seed.
func ObfusKeyFromSeed(seed int64, n int) []bool { return rsn.KeyFromSeed(seed, n) }

// ObfusKeyHex formats a key as big-endian hex; ParseObfusKeyHex is its
// inverse for a key of n bits.
func ObfusKeyHex(key []bool) string { return rsn.KeyHex(key) }

// ParseObfusKeyHex parses a big-endian hex key of n bits.
func ParseObfusKeyHex(s string, n int) ([]bool, error) { return rsn.ParseKeyHex(s, n) }

// Streaming scale-up generation (the rsngen -scale-ff path).
type (
	// ScaleGenConfig parameterizes one streamed SIB-hierarchy network.
	ScaleGenConfig = bench.ScaleGenConfig
	// ScaleGenStats summarizes what was streamed.
	ScaleGenStats = bench.ScaleStats
)

// StreamScaleICL streams a SIB-hierarchy scan network of
// cfg.TargetScanFFs flip-flops as ICL to w without materializing it;
// with cfg.ObfKeyBits set, the obfuscation overlay sidecar goes to ovw.
func StreamScaleICL(w, ovw io.Writer, cfg ScaleGenConfig) (*ScaleGenStats, error) {
	return bench.StreamScaleICL(w, ovw, cfg)
}
