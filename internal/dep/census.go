package dep

import (
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Census is the opt-in dependency census: the two-relation build (path
// and structural) bridged over the internal flip-flops, its node-level
// multi-cycle closure, and the entry counts of both. The analysis
// pipeline decides everything from the bridged path relation alone;
// the census serves what needs the structural relation or the closure
// — the bridging table's dependency counts (Section IV-B), the
// path/structural classification the running example prints, and the
// differential tests.
type Census struct {
	Base *Matrix // bridged 1-cycle dependencies, path and structural
	Clo  *Matrix // multi-cycle closure of Base
	// Stats carries the build's one-cycle and flip-flop counts; the
	// pipeline's PathDeps and PathSCCs are left zero.
	Stats Stats

	DepsBeforeBridge int // 1-cycle dependencies before bridging
	DepsAfterBridge  int // dependencies after bridging, before closure
	DepsMultiCycle   int // denoted dependencies after the closure
	ClosurePathDeps  int // path entries after the closure
}

// NewCensus bridges m — a two-relation matrix holding the 1-cycle,
// preset and link dependencies, built under stats — over the internal
// flip-flops and closes it, in the "bridge" and "closure" stages the
// pipeline reports too. m becomes the census's Base.
func NewCensus(m *Matrix, internal []netlist.FFID, stats Stats, opts engine.Options) (*Census, error) {
	if m.str == nil {
		panic("dep: census of a path-only matrix")
	}
	c := &Census{Base: m, Stats: stats, DepsBeforeBridge: m.CountDeps()}
	bridge := opts.Begin("bridge", obs.Int("internal_ffs", int64(len(internal))))
	Bridge(m, internal)
	bridge.End()
	c.Stats.BridgedFFs = len(internal)
	c.Stats.FFsDenoted = m.N() - len(internal)
	c.DepsAfterBridge = m.CountDeps()
	clo, err := ClosureOpts(m, m.PathCSR(), opts)
	if err != nil {
		return nil, err
	}
	c.Clo = clo
	c.DepsMultiCycle, c.ClosurePathDeps = clo.CountDeps(), clo.CountPath()
	return c, nil
}
