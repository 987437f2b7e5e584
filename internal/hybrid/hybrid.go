// Package hybrid implements the novel contribution of the paper:
// detection and resolution of security violations over hybrid scan
// paths — data paths that use both the reconfigurable scan
// infrastructure and the underlying circuit logic — at scan flip-flop
// granularity (Sections III-B to III-D).
//
// The analysis builds a combined dependency space over circuit
// flip-flops and scan flip-flops. Its fixed part — circuit 1-cycle
// dependencies, the preset register-chain dependencies, and the
// capture/update links — is computed once, with internal flip-flops
// bridged away, and reused across every structural change to the RSN
// (the paper's rationale for calculating dependencies "omitting the
// RSN"). Only the reconfigurable inter-register wiring is re-derived
// after each change. Security attributes are propagated
// omnidirectionally over the combined graph to a fixed point; the
// finitely many attribute values guarantee termination even on the
// cyclic flows hybrid paths create. The pure-path stage that precedes
// it (ResolvePure) runs on the same engine over a register-level view.
package hybrid

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Analysis is the fixed-infrastructure dependency analysis of one
// circuit + scan register structure. It is valid across arbitrary
// re-wiring of the network's inter-register connections.
type Analysis struct {
	Circuit *netlist.Netlist
	Spec    *secspec.Spec
	Mode    dep.Mode

	// Denoted marks combined indices that survived bridging.
	Denoted []bool
	// DepStats carries the dependency computation bookkeeping.
	DepStats dep.Stats
	// PresetDeps counts dependencies preset for consecutive scan
	// flip-flops instead of being computed (Section III-A subroutine 1).
	PresetDeps int

	nCirc     int
	total     int
	regOffset []int // per register: first combined index of its scan FFs
	regLen    []int
	regModule []int
	// nodeModule maps every combined index to its module.
	nodeModule []int
	// nDenoted counts the combined indices that survived bridging.
	nDenoted int
	// pathIn holds the bridged path relation over the combined index
	// space — circuit flip-flops first, then scan flip-flops — in
	// compressed-sparse-row form (row i lists the j that i
	// path-depends on): the adjacency the culprit search and the
	// insecure-logic condensation walk. It is the only dependency
	// relation the analysis keeps; the dense matrix it was built in is
	// dropped.
	pathIn graph.CSR
	// chainIn is the preset-chain adjacency the attribute propagation
	// walks (buildChain): pathIn over denoted nodes without the
	// intra-register edges the register chains imply. chainOut is its
	// transpose, each node's dependents.
	chainIn, chainOut graph.CSR
	// sccComp, sccMembers and sccStart are the strongly connected
	// components of pathIn as graph.SCC returns them, sources first:
	// the condensation InsecureModulePairs propagates over.
	sccComp, sccMembers, sccStart []int32
	// headReg maps the combined index of each register's scan flip-flop
	// 0 — the node its wiring input feeds — to the register, and every
	// other index to -1.
	headReg []int32
	// eng is the engine configuration the analysis was built under;
	// propagation and resolution report their stats through it.
	eng engine.Options
	// cache holds the most recent wiring's attribute fixed point, the
	// seed for incremental re-propagation after candidate cut/reconnect
	// changes. It is a pointer so the shallow WithSpec copy shares no
	// mutable state by accident: WithSpec installs a fresh cache, since
	// attributes depend on the specification.
	cache *propCache
}

// propCache is the parent-network fixed point a delta propagation
// re-seeds from. nw is a private clone of the wiring the fixed point
// belongs to — callers mutate their networks freely without
// invalidating the comparison. The mutex makes the cache safe for the
// parallel candidate evaluation of Resolve.
type propCache struct {
	mu sync.Mutex
	nw *rsn.Network
	p  *propagation
}

// NewAnalysis computes the fixed part of the hybrid data-flow analysis
// under the default engine configuration (all CPUs, no cancellation).
func NewAnalysis(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, spec *secspec.Spec, mode dep.Mode) *Analysis {
	// The background context never cancels, so the error is always nil.
	a, _ := NewAnalysisOpts(nw, circuit, internal, spec, mode, engine.Options{})
	return a
}

// NewAnalysisOpts computes the fixed part of the hybrid data-flow
// analysis: circuit 1-cycle dependencies (SAT-classified in Exact mode,
// fanned out over the engine's worker pool), preset register chains,
// capture/update links, bridging over the internal flip-flops, and the
// condensation of the bridged path relation. The build is path-only:
// only the path relation is kept (dep.NewPathMatrix), and the
// structural relation and the node-level closure are left to the
// census (NewCensus). Per-stage wall times and query counts are
// reported through opts.Stats; cancellation via opts.Context is honored
// between SAT queries and pipeline stages, returning the context error.
func NewAnalysisOpts(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, spec *secspec.Spec, mode dep.Mode, opts engine.Options) (*Analysis, error) {
	a := newLayout(nw, circuit, spec, mode, opts)
	m := dep.NewPathMatrix(a.total)
	if err := a.fillDeps(m, nw, opts); err != nil {
		return nil, err
	}

	before := m.CountPath()
	bridge := opts.Begin("bridge", obs.Int("internal_ffs", int64(len(internal))),
		obs.Int("path_deps_before", int64(before)))
	dep.Bridge(m, internal)
	a.pathIn = m.PathCSR()
	a.Denoted = make([]bool, a.total)
	for i := range a.Denoted {
		a.Denoted[i] = true
	}
	for _, k := range internal {
		a.Denoted[k] = false
	}
	for _, d := range a.Denoted {
		if d {
			a.nDenoted++
		}
	}
	a.buildChain()
	bridge.SetAttrs(obs.Int("path_deps_after", int64(m.CountPath())))
	bridge.End()
	a.DepStats.BridgedFFs = len(internal)
	a.DepStats.FFsDenoted = a.total - len(internal)
	a.DepStats.PathDeps = m.CountPath()
	opts.Logf("bridge: %d internal FFs eliminated, %d -> %d path deps",
		len(internal), before, a.DepStats.PathDeps)
	if err := opts.Err(); err != nil {
		return nil, err
	}

	// The spec-independent half of the insecure-logic check: the
	// condensation of the path relation.
	closure := opts.Begin("closure", obs.Int("nodes", int64(a.total)))
	a.sccComp, a.sccMembers, a.sccStart = a.pathIn.SCC()
	a.DepStats.PathSCCs = len(a.sccStart) - 1
	closure.AddItems(int64(a.DepStats.PathSCCs))
	closure.SetAttrs(obs.Int("sccs_path", int64(a.DepStats.PathSCCs)))
	closure.End()
	opts.Logf("closure: %d path SCCs", a.DepStats.PathSCCs)
	if err := opts.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// NewCensus runs the dependency census of the analysis NewAnalysisOpts
// builds for the same arguments: the same 1-cycle, preset and link
// dependencies in a two-relation matrix, bridged over the internal
// flip-flops and closed (dep.NewCensus). It is opt-in: the bridging
// table, the running example and the differential tests read it; the
// analysis pipeline does not.
func NewCensus(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, mode dep.Mode, opts engine.Options) (*dep.Census, error) {
	a := newLayout(nw, circuit, nil, mode, opts)
	m := dep.NewMatrix(a.total)
	if err := a.fillDeps(m, nw, opts); err != nil {
		return nil, err
	}
	return dep.NewCensus(m, internal, a.DepStats, opts)
}

// newLayout returns an analysis with the combined index space of nw's
// registers after circuit's flip-flops laid out, and no dependencies
// yet.
func newLayout(nw *rsn.Network, circuit *netlist.Netlist, spec *secspec.Spec, mode dep.Mode, opts engine.Options) *Analysis {
	a := &Analysis{Circuit: circuit, Spec: spec, Mode: mode, eng: opts, cache: &propCache{}}
	a.nCirc = circuit.NumFFs()
	a.regOffset = make([]int, len(nw.Registers))
	a.regLen = make([]int, len(nw.Registers))
	a.regModule = make([]int, len(nw.Registers))
	idx := a.nCirc
	for r := range nw.Registers {
		a.regOffset[r] = idx
		a.regLen[r] = nw.Registers[r].Len
		a.regModule[r] = nw.Registers[r].Module
		idx += nw.Registers[r].Len
	}
	a.total = idx
	a.nodeModule = make([]int, a.total)
	for f := 0; f < a.nCirc; f++ {
		a.nodeModule[f] = circuit.FFs[f].Module
	}
	for r := range nw.Registers {
		for i := 0; i < a.regLen[r]; i++ {
			a.nodeModule[a.regOffset[r]+i] = a.regModule[r]
		}
	}
	a.headReg = make([]int32, a.total)
	for i := range a.headReg {
		a.headReg[i] = -1
	}
	for r := range a.regOffset {
		a.headReg[a.regOffset[r]] = int32(r)
	}
	a.DepStats.Mode = mode
	a.DepStats.FFsTotal = a.total
	return a
}

// newRegisterView returns the analysis the pure stage propagates over:
// one node per register — register r is node r, its own head and last
// bit — and the mux pseudo-nodes after them, with no circuit and no
// fixed path edges, so attributes flow over the scan wiring alone. Its
// engine options are zero: the propagate spans it would open stay
// closed, and its work is accounted to the pure-resolve stage.
func newRegisterView(nw *rsn.Network, spec *secspec.Spec) *Analysis {
	n := len(nw.Registers)
	a := &Analysis{Spec: spec, total: n, nDenoted: n,
		regOffset: make([]int, n), regLen: make([]int, n), nodeModule: make([]int, n),
		headReg: make([]int32, n), Denoted: make([]bool, n)}
	for r := range nw.Registers {
		a.regOffset[r], a.regLen[r], a.headReg[r], a.Denoted[r] = r, 1, int32(r), true
		a.nodeModule[r] = nw.Registers[r].Module
	}
	a.chainIn = graph.NewCSR(n, func(func(src, dst int)) {})
	a.chainOut = a.chainIn
	return a
}

// fillDeps writes the fixed dependencies into m, before bridging: the
// circuit's 1-cycle dependencies, the preset register chains and the
// capture/update links.
func (a *Analysis) fillDeps(m *dep.Matrix, nw *rsn.Network, opts engine.Options) error {
	if err := dep.FillOneCycleCfg(m, a.Circuit, a.Mode, &a.DepStats, opts, dep.OneCycleConfig{}); err != nil {
		return err
	}

	// Preset the dependencies of consecutive flip-flops inside each
	// scan register: the latter path-depends on every former one.
	for r := range nw.Registers {
		for j := 1; j < a.regLen[r]; j++ {
			for i := 0; i < j; i++ {
				m.Set(a.regOffset[r]+j, a.regOffset[r]+i, dep.Path)
				a.PresetDeps++
			}
		}
	}
	// Capture and update links couple scan and circuit flip-flops.
	for r := range nw.Registers {
		reg := &nw.Registers[r]
		for i := 0; i < reg.Len; i++ {
			if g := reg.Capture[i]; g != netlist.NoFF {
				m.Set(a.regOffset[r]+i, int(g), dep.Path)
			}
			if f := reg.Update[i]; f != netlist.NoFF {
				m.Set(int(f), a.regOffset[r]+i, dep.Path)
			}
		}
	}
	return opts.Err()
}

// WithSpec returns a shallow copy of the analysis evaluating a
// different security specification. The path relation and its
// condensation do not depend on the specification, so one analysis can
// be reused across many specs (the experimental protocol evaluates 16
// specifications per generated circuit).
func (a *Analysis) WithSpec(spec *secspec.Spec) *Analysis {
	cp := *a
	cp.Spec = spec
	// Attributes depend on the specification: the copy must not reuse
	// (or share) the original's cached fixed point.
	cp.cache = &propCache{}
	return &cp
}

// Total returns the size of the combined index space.
func (a *Analysis) Total() int { return a.total }

// NumCircuitFFs returns the number of circuit flip-flop indices.
func (a *Analysis) NumCircuitFFs() int { return a.nCirc }

// ScanIndex returns the combined index of scan flip-flop bit of
// register reg.
func (a *Analysis) ScanIndex(reg, bit int) int { return a.regOffset[reg] + bit }

// NodeModule returns the module of a combined index.
func (a *Analysis) NodeModule(n int) int { return a.nodeModule[n] }

// IsScanNode reports whether the combined index is a scan flip-flop,
// and if so of which register and bit.
func (a *Analysis) IsScanNode(n int) (reg, bit int, ok bool) {
	if n < a.nCirc {
		return 0, 0, false
	}
	// regOffset ascending: binary search for the register.
	r := sort.Search(len(a.regOffset), func(i int) bool { return a.regOffset[i] > n }) - 1
	return r, n - a.regOffset[r], true
}

// NodeName renders a combined index for diagnostics.
func (a *Analysis) NodeName(n int) string {
	if r, b, ok := a.IsScanNode(n); ok {
		return fmt.Sprintf("R%d.SF%d", r, b)
	}
	return fmt.Sprintf("ff:%s", a.Circuit.FFs[n].Name)
}

// InsecureModulePairs returns the module pairs (source, destination)
// of the security violations that exist over the fixed infrastructure
// alone (circuit logic, register chains and capture/update links) —
// violations that no re-wiring of the RSN can resolve and that require
// a redesign of the circuit (Section III-B). A pair is reported, once,
// when a denoted flip-flop of the destination module path-depends in
// the multi-cycle closure on a denoted flip-flop of the source module
// and the specification forbids the flow. Pairs are sorted, so every
// run — parallel or not — reports them identically.
//
// The closure is never built. A node reaches a node of another
// component exactly when their components are linked in the
// condensation, and a node of a component with several members reaches
// every member of its own. So the set of source modules reaching a
// component is the union, over the components its members path-depend
// on, of that component's set plus the module of the member depended
// on (a multi-member predecessor's set holds its own modules already),
// plus the component's own modules when it has several members. A
// self-loop needs no case of its own: a node reaching itself adds only
// its own module, which never violates, and its dependents get that
// module from the edge. The sets are propagated in Tarjan's emission
// order, which lists every component after those it depends on. Only
// the sensitive source modules — those some module may not receive
// data from — get a bit, so a set is a word or two.
func (a *Analysis) InsecureModulePairs() [][2]int {
	spec := a.Spec
	nm := len(spec.Trust)
	// bit[ms] is source module ms's bit, -1 when no module violates it;
	// sens lists the sensitive modules by bit, ascending. Violates(ms,
	// md) depends on md only through its trust category (and ms != md).
	ncat := 0
	for _, c := range spec.Trust {
		ncat = max(ncat, int(c)+1)
	}
	trusted := make([]int, ncat) // modules per trust category
	for _, c := range spec.Trust {
		trusted[c]++
	}
	bit := make([]int, nm)
	var sens []int
	for ms := range nm {
		bit[ms] = -1
		for c, k := range trusted {
			if k > 0 && !spec.Accepts[ms].Has(secspec.Category(c)) && (k > 1 || spec.Trust[ms] != secspec.Category(c)) {
				bit[ms] = len(sens)
				sens = append(sens, ms)
				break
			}
		}
	}
	if len(sens) == 0 {
		return nil
	}
	w := (len(sens) + 63) / 64
	// violCat[c]: the sensitive sources a module of trust c may not
	// receive data from (its own bit aside).
	violCat := make([]uint64, ncat*w)
	for b, ms := range sens {
		for c := range trusted {
			if !spec.Accepts[ms].Has(secspec.Category(c)) {
				violCat[c*w+b/64] |= 1 << (b % 64)
			}
		}
	}
	nc := len(a.sccStart) - 1
	reach := make([]uint64, nc*w)
	found := make([]uint64, nm*w) // per destination module: violating sources reaching it
	setModule := func(set []uint64, n int) {
		if b := bit[a.nodeModule[n]]; b >= 0 && a.Denoted[n] {
			set[b/64] |= 1 << (b % 64)
		}
	}
	for c := range nc {
		members := a.sccMembers[a.sccStart[c]:a.sccStart[c+1]]
		rc := reach[c*w : (c+1)*w]
		for _, u := range members {
			for _, j := range a.pathIn.Row(int(u)) {
				cj := int(a.sccComp[j])
				if cj == c {
					continue
				}
				for x, v := range reach[cj*w : (cj+1)*w] {
					rc[x] |= v
				}
				setModule(rc, int(j))
			}
		}
		if len(members) > 1 {
			for _, u := range members {
				setModule(rc, int(u))
			}
		}
		for _, u := range members {
			if !a.Denoted[u] {
				continue
			}
			md := a.nodeModule[u]
			vc := violCat[int(spec.Trust[md])*w:]
			for x, v := range rc {
				found[md*w+x] |= v & vc[x]
			}
		}
	}
	var out [][2]int
	for b, ms := range sens {
		for md := range nm {
			if md != ms && found[md*w+b/64]&(1<<(b%64)) != 0 {
				out = append(out, [2]int{ms, md})
			}
		}
	}
	return out
}

// Violation is a detected security violation: confidential data flows
// functionally into node Node (a scan flip-flop or a denoted circuit
// flip-flop) whose module may not hold it.
type Violation struct {
	Node int
	// Missing is the trust category of Node's module, absent from the
	// arriving attribute.
	Missing secspec.Category
}

// lastIndex returns the combined index of the last scan flip-flop of a
// register.
func (a *Analysis) lastIndex(reg int) int { return a.regOffset[reg] + a.regLen[reg] - 1 }

// active reports whether a propagation node carries attributes: mux
// pseudo-nodes always do, combined indices only when denoted.
func (a *Analysis) active(n int) bool { return n >= a.total || a.Denoted[n] }

// srcIdx maps a wiring source reference to its propagation node, or -1
// for the scan-in port (no constraint). Mux m is the transparent
// pseudo-node a.total+m.
func (a *Analysis) srcIdx(ref rsn.Ref) int {
	switch ref.Kind {
	case rsn.KRegister:
		return a.lastIndex(int(ref.ID))
	case rsn.KMux:
		return a.total + int(ref.ID)
	}
	return -1
}

// wiring is the reverse adjacency of a network's inter-register
// connections: sinks(s) lists, ascending, the propagation nodes (bit-0
// scan flip-flops and mux pseudo-nodes) to re-evaluate when node s's
// out-attribute changes, a mux listing s twice listed twice. The fixed
// path edges are not included; they are read from the CSR arrays. A
// resolution's wiring is edited in place (commit): own holds, by node,
// the rows that replaced rows's, and is allocated on the first edit. A
// trial wiring derived by trialWiring shares its parent's rows and own
// and overrides only the rows of sources whose sinks changed.
type wiring struct {
	rows     graph.CSR
	own      [][]int32
	patchSrc []int32
	patchRow [][]int32
}

// sinks returns the nodes fed by node s.
func (w *wiring) sinks(s int) []int32 {
	for i, p := range w.patchSrc {
		if int(p) == s {
			return w.patchRow[i]
		}
	}
	if s < len(w.own) && w.own[s] != nil {
		return w.own[s]
	}
	if s < w.rows.Len() {
		return w.rows.Row(s)
	}
	return nil
}

// commit makes tw, a trial wiring derived from w whose change was
// applied, w's own: its patched rows, never nil, replace w's. Nodes of
// inserted muxes need no growth of rows: they start with no sinks.
func (w *wiring) commit(tw *wiring) {
	for i, s := range tw.patchSrc {
		if n := int(s) + 1; n > len(w.own) {
			w.own = append(w.own, make([][]int32, max(n, w.rows.Len())-len(w.own))...)
		}
		w.own[s] = tw.patchRow[i]
	}
}

// buildWiring derives the reverse wiring adjacency of the network's
// current inter-register connections.
func (a *Analysis) buildWiring(nw *rsn.Network) *wiring {
	return &wiring{rows: graph.NewCSR(a.total+len(nw.Muxes), func(add func(src, dst int)) {
		for r := range nw.Registers {
			if s := a.srcIdx(nw.Registers[r].In); s >= 0 {
				add(s, a.ScanIndex(r, 0))
			}
		}
		for m := range nw.Muxes {
			for _, in := range nw.Muxes[m].Inputs {
				if s := a.srcIdx(in); s >= 0 {
					add(s, a.total+m)
				}
			}
		}
	})}
}

// forSources calls f for every propagation node feeding node n through
// nw's wiring — the register input of a bit-0 scan flip-flop or a mux's
// inputs — skipping the scan-in port, which is no node.
func (a *Analysis) forSources(nw *rsn.Network, n int, f func(s int32)) {
	if n >= a.total {
		for _, ref := range nw.Muxes[n-a.total].Inputs {
			if s := a.srcIdx(ref); s >= 0 {
				f(int32(s))
			}
		}
	} else if r := a.headReg[n]; r >= 0 {
		if s := a.srcIdx(nw.Registers[r].In); s >= 0 {
			f(int32(s))
		}
	}
}

// trialWiring derives the wiring of nw after the candidate change rw,
// given pw, the wiring of nw before it, and returns it with the nodes
// whose inputs rw changed (the delta seeds). Only the rows of sources
// that lost a sink to rw or feed a changed node are rebuilt — each as
// pw's row without the changed nodes plus the changed nodes that now
// read the source, sorted: exactly the row buildWiring(nw) produces.
func (a *Analysis) trialWiring(pw *wiring, nw *rsn.Network, rw rsn.Rewiring) (*wiring, []int32) {
	changed := a.seeds(rw.Elems(nw))
	var srcs []int32
	for i, pin := range rw.Pins {
		// The scan-out port is no wiring sink: its old source lost nothing.
		if s := a.srcIdx(rw.Prev[i]); s >= 0 && pin.Elem.Kind != rsn.KScanOut {
			srcs = append(srcs, int32(s))
		}
	}
	for _, c := range changed {
		a.forSources(nw, int(c), func(s int32) { srcs = append(srcs, s) })
	}
	w := &wiring{rows: pw.rows, own: pw.own}
	for _, s := range srcs {
		if slices.Contains(w.patchSrc, s) {
			continue
		}
		row := []int32{} // not nil: commit marks own rows by it
		for _, d := range pw.sinks(int(s)) {
			if !slices.Contains(changed, d) {
				row = append(row, d)
			}
		}
		for _, c := range changed {
			a.forSources(nw, int(c), func(in int32) {
				if in == s {
					row = append(row, c)
				}
			})
		}
		slices.Sort(row)
		w.patchSrc = append(w.patchSrc, s)
		w.patchRow = append(w.patchRow, row)
	}
	return w, changed
}

// seeds maps elements whose inputs changed to their propagation nodes:
// a register's bit-0 scan flip-flop, a mux's pseudo-node. The scan-out
// port is not a propagation node.
func (a *Analysis) seeds(elems []rsn.Ref) []int32 {
	var seeds []int32
	for _, e := range elems {
		switch e.Kind {
		case rsn.KRegister:
			seeds = append(seeds, int32(a.ScanIndex(int(e.ID), 0)))
		case rsn.KMux:
			seeds = append(seeds, int32(a.total+int(e.ID)))
		}
	}
	return seeds
}

// activeCount returns the number of attribute-carrying nodes of the
// combined graph under the given wiring.
func (a *Analysis) activeCount(nw *rsn.Network) int { return a.nDenoted + len(nw.Muxes) }

// propWiringEqual reports whether two networks have identical
// propagation-relevant wiring: register inputs and mux input lists.
// (The scan-out source does not feed any propagation node.)
func propWiringEqual(x, y *rsn.Network) bool {
	if len(x.Registers) != len(y.Registers) || len(x.Muxes) != len(y.Muxes) {
		return false
	}
	for _, e := range y.ChangedInputs(x) {
		if e.Kind != rsn.KScanOut {
			return false
		}
	}
	return true
}

// fixedPoint returns the attribute fixed point of the network's current
// wiring, reusing the analysis's cached parent fixed point when
// possible: wiring-identical networks are answered from the cache
// outright, and otherwise the cached fixed point is repaired for the
// wiring delta (propagateDelta). Falls back to a full propagation when no
// parent is cached. The cache is updated to the returned fixed point
// (keyed by a private clone of the wiring), and all paths produce the
// identical unique greatest fixed point, so callers — including the
// parallel candidate evaluation — may race on the cache freely without
// affecting results.
func (a *Analysis) fixedPoint(nw *rsn.Network) *propagation {
	c := a.cache
	if c == nil {
		return a.propagate(nw)
	}
	c.mu.Lock()
	parent, parentNW := c.p, c.nw
	c.mu.Unlock()
	var p *propagation
	switch {
	// The register set is fixed infrastructure; a parent with a
	// different one is a foreign network the delta diff cannot relate.
	case parent == nil || len(parentNW.Registers) != len(nw.Registers):
		p = a.propagate(nw)
	case propWiringEqual(parentNW, nw):
		a.eng.Stats.Stage("propagate-delta").AddSaved(int64(a.activeCount(nw)))
		return parent
	default:
		p = a.propagateDelta(parent, parentNW, nw)
	}
	snap := nw.Clone()
	c.mu.Lock()
	c.p, c.nw = p, snap
	c.mu.Unlock()
	return p
}

// Violations returns the security violations of the network's current
// wiring, sorted by combined index — a deterministic order regardless
// of the engine's worker configuration, so reports and -explain output
// are byte-identical across runs.
func (a *Analysis) Violations(nw *rsn.Network) []Violation {
	return a.violationsFrom(a.fixedPoint(nw))
}

// violationsFrom extracts the sorted violation list from an attribute
// fixed point.
func (a *Analysis) violationsFrom(p *propagation) []Violation {
	var out []Violation
	for n := 0; n < a.total; n++ {
		if !a.Denoted[n] {
			continue
		}
		trust := a.Spec.Trust[a.nodeModule[n]]
		if !p.attrIn[n].Has(trust) {
			out = append(out, Violation{Node: n, Missing: trust})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ViolatingRegisters returns the registers containing at least one
// violating scan flip-flop, ascending.
func (a *Analysis) ViolatingRegisters(nw *rsn.Network) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range a.Violations(nw) {
		if r, _, ok := a.IsScanNode(v.Node); ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}
