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
// cyclic flows hybrid paths create.
package hybrid

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
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

	// Base is the bridged 1-cycle dependency matrix over the combined
	// index space: circuit flip-flops first, then scan flip-flops.
	Base *dep.Matrix
	// Clo is the multi-cycle closure of Base.
	Clo *dep.Matrix
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
	// pathIn holds Base's path edges in compressed-sparse-row form
	// (PathDependsOn rows) and pathOut its transpose (each node's path
	// dependents): the adjacency the propagation worklist and the
	// culprit search walk, and pathIn is the closure's path input. The
	// bridged matrix averages about one path edge per node, so scanning
	// dense bitset rows per evaluation cost far more than the edges
	// themselves.
	pathIn, pathOut graph.CSR
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
// multi-cycle closure. Per-stage wall times and query counts are
// reported through opts.Stats; cancellation via opts.Context is honored
// between SAT queries and pipeline stages, returning the context error.
func NewAnalysisOpts(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, spec *secspec.Spec, mode dep.Mode, opts engine.Options) (*Analysis, error) {
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

	a.DepStats.Mode = mode
	a.DepStats.FFsTotal = a.total
	m := dep.NewMatrix(a.total)
	if err := dep.FillOneCycleCfg(m, circuit, mode, &a.DepStats, opts, dep.OneCycleConfig{}); err != nil {
		return nil, err
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
	a.DepStats.DepsBeforeBridge = m.CountDeps()
	if err := opts.Err(); err != nil {
		return nil, err
	}

	bridge := opts.Begin("bridge", obs.Int("internal_ffs", int64(len(internal))),
		obs.Int("deps_before", int64(a.DepStats.DepsBeforeBridge)))
	dep.Bridge(m, internal)
	a.pathIn = m.PathCSR()
	a.pathOut = a.pathIn.Transpose()
	bridge.End()
	a.DepStats.BridgedFFs = len(internal)
	a.DepStats.FFsDenoted = a.total - len(internal)
	a.DepStats.DepsAfterBridge = m.CountDeps()
	a.Base = m
	a.headReg = make([]int32, a.total)
	for i := range a.headReg {
		a.headReg[i] = -1
	}
	for r := range a.regOffset {
		a.headReg[a.regOffset[r]] = int32(r)
	}
	opts.Logf("bridge: %d internal FFs eliminated, %d -> %d deps",
		len(internal), a.DepStats.DepsBeforeBridge, a.DepStats.DepsAfterBridge)
	if err := opts.Err(); err != nil {
		return nil, err
	}

	clo, err := dep.ClosureOpts(m, a.pathIn, opts)
	if err != nil {
		return nil, err
	}
	a.Clo = clo
	a.DepStats.DepsMultiCycle = a.Clo.CountDeps()
	a.DepStats.ClosurePathDeps = a.Clo.CountPath()
	opts.Logf("closure: %d multi-cycle deps (%d path)",
		a.DepStats.DepsMultiCycle, a.DepStats.ClosurePathDeps)

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
	if err := opts.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// WithSpec returns a shallow copy of the analysis evaluating a
// different security specification. The dependency matrices do not
// depend on the specification, so one analysis can be reused across
// many specs (the experimental protocol evaluates 16 specifications per
// generated circuit).
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

// InsecurePair is a fixed-infrastructure data flow that violates the
// specification independently of the reconfigurable scan wiring.
type InsecurePair struct {
	Src, Dst int // combined indices; data flows Src -> Dst
}

// InsecureLogic returns the security violations that exist over the
// fixed infrastructure alone (circuit logic, register chains and
// capture/update links) — violations that no re-wiring of the RSN can
// resolve and that require a redesign of the circuit (Section III-B).
// Pairs are sorted by (Src, Dst) so every run — parallel or not —
// reports them byte-identically.
func (a *Analysis) InsecureLogic() []InsecurePair {
	var out []InsecurePair
	a.insecureFlows(func(src, dst int) { out = append(out, InsecurePair{Src: src, Dst: dst}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// InsecureModulePairs returns the module pairs (source, destination)
// of InsecureLogic, each once, sorted. Pairs are marked in one row of
// destination modules per source module while the closure's path rows
// are walked, so no node pair is collected.
func (a *Analysis) InsecureModulePairs() [][2]int {
	nm := len(a.Spec.Trust)
	bySrc := make([]*bitset.Set, nm)
	a.insecureFlows(func(src, dst int) {
		ms := a.nodeModule[src]
		if bySrc[ms] == nil {
			bySrc[ms] = bitset.New(nm)
		}
		bySrc[ms].Set(a.nodeModule[dst])
	})
	var out [][2]int
	for ms, dsts := range bySrc {
		if dsts != nil {
			dsts.ForEach(func(md int) { out = append(out, [2]int{ms, md}) })
		}
	}
	return out
}

// insecureFlows calls f(src, dst) for every pair of denoted combined
// indices where dst path-depends on src in the closure and the
// specification forbids the flow between their modules.
func (a *Analysis) insecureFlows(f func(src, dst int)) {
	for i := 0; i < a.total; i++ {
		if !a.Denoted[i] {
			continue
		}
		mi := a.nodeModule[i]
		a.Clo.PathDependsOn(i).ForEach(func(j int) {
			if a.Denoted[j] && a.Spec.Violates(a.nodeModule[j], mi) {
				f(j, i)
			}
		})
	}
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

// propagation holds the fixed-point attribute state for one wiring.
type propagation struct {
	attrIn  []secspec.CatSet
	attrOut []secspec.CatSet
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
// out-attribute changes. The fixed Base edges are not included; they
// are read from the CSR arrays. A trial wiring derived by trialWiring
// shares its parent's rows and overrides only the rows of sources whose
// sinks changed.
type wiring struct {
	rows     graph.CSR
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
	if s < w.rows.Len() {
		return w.rows.Row(s)
	}
	return nil
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

// nodeSources appends the propagation nodes feeding node n under nw's
// wiring (the scan-in port is no node and is skipped): the register
// input of a bit-0 scan flip-flop or a mux's inputs.
func (a *Analysis) nodeSources(dst []int32, nw *rsn.Network, n int) []int32 {
	var refs []rsn.Ref
	if n >= a.total {
		refs = nw.Muxes[n-a.total].Inputs
	} else if r := a.headReg[n]; r >= 0 {
		refs = []rsn.Ref{nw.Registers[r].In}
	}
	for _, ref := range refs {
		if s := a.srcIdx(ref); s >= 0 {
			dst = append(dst, int32(s))
		}
	}
	return dst
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
		srcs = a.nodeSources(srcs, nw, int(c))
	}
	w := &wiring{rows: pw.rows}
	var ins []int32
	for _, s := range srcs {
		if slices.Contains(w.patchSrc, s) {
			continue
		}
		var row []int32
		for _, d := range pw.sinks(int(s)) {
			if !slices.Contains(changed, d) {
				row = append(row, d)
			}
		}
		for _, c := range changed {
			ins = a.nodeSources(ins[:0], nw, int(c))
			for _, in := range ins {
				if in == s {
					row = append(row, c)
				}
			}
		}
		slices.Sort(row)
		w.patchSrc = append(w.patchSrc, s)
		w.patchRow = append(w.patchRow, row)
	}
	return w, changed
}

// runWorklist drives the monotone-decreasing attribute iteration to its
// fixed point from the given seed queue, re-evaluating nodes whose
// inputs changed. The queue is consumed through a head index and
// compacted in place once the dead prefix dominates, so the worklist
// never retains its backing array's consumed half (the former
// queue=queue[1:] pattern leaked the whole array until completion).
// It returns the number of node evaluations and the queue's backing
// slice, emptied, for reuse; inQueue is all false again on return.
func (a *Analysis) runWorklist(nw *rsn.Network, w *wiring, p *propagation, queue []int32, inQueue []bool) (int64, []int32) {
	all := secspec.AllCats(a.Spec.NumCategories)
	evals := int64(0)
	head := 0
	for head < len(queue) {
		if head >= 1024 && head*2 >= len(queue) {
			queue = queue[:copy(queue, queue[head:])]
			head = 0
		}
		n := int(queue[head])
		head++
		inQueue[n] = false
		evals++

		in := all
		var out secspec.CatSet
		if n >= a.total {
			// Transparent mux node: intersection of its inputs.
			for _, ref := range nw.Muxes[n-a.total].Inputs {
				if s := a.srcIdx(ref); s >= 0 {
					in &= p.attrOut[s]
				}
			}
			out = in
		} else {
			for _, u := range a.pathIn.Row(n) {
				if a.Denoted[u] {
					in &= p.attrOut[u]
				}
			}
			if r := a.headReg[n]; r >= 0 {
				if s := a.srcIdx(nw.Registers[r].In); s >= 0 {
					in &= p.attrOut[s]
				}
			}
			out = in & a.Spec.Accepts[a.nodeModule[n]]
		}
		p.attrIn[n] = in
		if out == p.attrOut[n] {
			continue
		}
		p.attrOut[n] = out
		// Re-evaluate everything fed by n. Base edges end at combined
		// indices, active when denoted; wiring sinks may be muxes.
		if n < a.total {
			for _, d := range a.pathOut.Row(n) {
				if a.Denoted[d] && !inQueue[d] {
					inQueue[d] = true
					queue = append(queue, d)
				}
			}
		}
		for _, d := range w.sinks(n) {
			if a.active(int(d)) && !inQueue[d] {
				inQueue[d] = true
				queue = append(queue, d)
			}
		}
	}
	return evals, queue[:0]
}

// propagate computes the omnidirectional fixed point of security
// attributes over the combined graph from scratch: fixed Base edges
// plus the network's current inter-register wiring. Scan multiplexers
// are transparent pseudo-nodes (indices a.total..a.total+muxes-1) so
// the wiring contributes O(edges) work instead of flattening mux
// chains. All active nodes start at top and seed the worklist; the
// finite attribute lattice guarantees convergence to the greatest fixed
// point, which is unique — the reference point the incremental
// propagateDelta must reproduce exactly.
func (a *Analysis) propagate(nw *rsn.Network) *propagation {
	stage := a.eng.Begin("propagate")
	defer stage.End()
	all := secspec.AllCats(a.Spec.NumCategories)
	size := a.total + len(nw.Muxes)
	p := &propagation{
		attrIn:  make([]secspec.CatSet, size),
		attrOut: make([]secspec.CatSet, size),
	}
	for i := 0; i < a.total; i++ {
		p.attrIn[i] = all
		p.attrOut[i] = all & a.Spec.Accepts[a.nodeModule[i]]
	}
	for i := a.total; i < size; i++ {
		p.attrIn[i] = all
		p.attrOut[i] = all
	}
	inQueue := make([]bool, size)
	queue := make([]int32, 0, size)
	for n := 0; n < size; n++ {
		if a.active(n) {
			queue = append(queue, int32(n))
			inQueue[n] = true
		}
	}
	evals, _ := a.runWorklist(nw, a.buildWiring(nw), p, queue, inQueue)
	stage.AddQueries(evals)
	return p
}

// violates reports whether the active combined index n lacks its own
// module's trust category in the propagation's incoming attribute.
func (a *Analysis) violates(p *propagation, n int) bool {
	return !p.attrIn[n].Has(a.Spec.Trust[a.nodeModule[n]])
}

// propagateDelta computes the fixed point of nw's wiring by re-seeding
// from the parent network's fixed point instead of from scratch.
//
// The invariant making this exact: a node is dirty when its evaluation
// equation changed (its register input or mux input list differs
// between the two wirings, or it is a new mux), or when a dirty node
// feeds it — the dirty set is the forward closure of the changed-wiring
// seeds over nw's dependency edges. Every clean node therefore has the
// same equation in both wirings and only clean sources, so the clean
// region is a backward-closed subsystem identical in both networks, and
// the greatest fixed point — unique on the finite attribute lattice —
// restricted to it coincides with the parent's. Resetting the dirty
// cone to top and re-running the monotone worklist from the dirty seeds
// then reconstructs exactly the full propagation's fixed point
// (TestIncrementalPropagateMatchesFull checks this differentially on
// every candidate change of catalog benchmarks).
func (a *Analysis) propagateDelta(parent *propagation, parentNW, nw *rsn.Network) *propagation {
	p, _ := a.propagateDeltaOn(parent, a.buildWiring(nw), nw, a.seeds(nw.ChangedInputs(parentNW)))
	return p
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

// propagateDeltaOn re-propagates the dirty cone of the seeds over nw's
// wiring w from the parent fixed point, and returns the new fixed point
// with the change in the number of violating nodes, counted over the
// cone alone (nodes outside it keep the parent's attributes).
func (a *Analysis) propagateDeltaOn(parent *propagation, w *wiring, nw *rsn.Network, seeds []int32) (*propagation, int) {
	// A high-frequency stage (one per candidate trial); sample its
	// span via the tracer (SampleEvery("propagate-delta", n)) on large
	// runs.
	stage := a.eng.Begin("propagate-delta")
	defer stage.End()
	all := secspec.AllCats(a.Spec.NumCategories)
	size := a.total + len(nw.Muxes)

	p := &propagation{
		attrIn:  make([]secspec.CatSet, size),
		attrOut: make([]secspec.CatSet, size),
	}
	common := min(size, len(parent.attrIn))
	copy(p.attrIn, parent.attrIn[:common])
	copy(p.attrOut, parent.attrOut[:common])
	for i := common; i < size; i++ {
		p.attrIn[i] = all
		p.attrOut[i] = all
	}

	// Dirty cone: forward closure of the seeds over nw's edges.
	sc, _ := deltaScratchPool.Get().(*deltaScratch)
	if sc == nil {
		sc = &deltaScratch{}
	}
	defer deltaScratchPool.Put(sc)
	if len(sc.inQueue) < size {
		sc.inQueue = make([]bool, size+size/4)
	}
	inQueue := sc.inQueue
	cone := sc.cone[:0]
	for _, s := range seeds {
		if a.active(int(s)) && !inQueue[s] {
			inQueue[s] = true
			cone = append(cone, s)
		}
	}
	for head := 0; head < len(cone); head++ {
		n := int(cone[head])
		if n < a.total {
			for _, d := range a.pathOut.Row(n) {
				if a.Denoted[d] && !inQueue[d] {
					inQueue[d] = true
					cone = append(cone, d)
				}
			}
		}
		for _, d := range w.sinks(n) {
			if a.active(int(d)) && !inQueue[d] {
				inQueue[d] = true
				cone = append(cone, d)
			}
		}
	}
	// Reset the cone to top and re-run the worklist from it, counting
	// the cone's violating scan and circuit flip-flops on both sides.
	dv := 0
	for _, n := range cone {
		if int(n) >= a.total {
			p.attrIn[n] = all
			p.attrOut[n] = all
			continue
		}
		if a.violates(p, int(n)) {
			dv--
		}
		p.attrIn[n] = all
		p.attrOut[n] = all & a.Spec.Accepts[a.nodeModule[n]]
	}
	dirty := len(cone)
	evals, queue := a.runWorklist(nw, w, p, append(sc.queue[:0], cone...), inQueue)
	sc.cone, sc.queue = cone, queue
	for _, n := range cone {
		if int(n) < a.total && a.violates(p, int(n)) {
			dv++
		}
	}
	stage.AddQueries(evals)
	stage.AddItems(int64(dirty))
	saved := a.activeCount(nw) - dirty
	stage.AddSaved(int64(saved))
	stage.SetAttrs(obs.Int("dirty", int64(dirty)), obs.Int("saved", int64(saved)),
		obs.Int("evals", evals))
	return p, dv
}

// deltaScratch is the dirty-cone state propagateDeltaOn reuses across
// calls through deltaScratchPool (candidate trials run concurrently):
// the membership marks, all false between uses, the cone and the
// worklist queue.
type deltaScratch struct {
	inQueue     []bool
	cone, queue []int32
}

var deltaScratchPool sync.Pool

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
// outright, and otherwise only the dirty cone downstream of the wiring
// delta is re-propagated. Falls back to a full propagation when no
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
