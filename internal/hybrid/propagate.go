package hybrid

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// The security-attribute fixed point is a reachability set. Per trust
// category c the propagation equations are boolean: a node carries c
// out when its module accepts c and every input carries c. The greatest
// fixed point therefore lacks c at exactly the nodes reachable from a
// blocker of c — an active node whose module does not accept c, or a
// non-denoted flip-flop feeding wiring with such a module (its
// attributes are constant). propagate computes it as one bit-parallel
// BFS from the blockers for all categories at once, recording for each
// node and missing category its BFS level; delta repairs it after a
// wiring change by keeping every missing category that still has a
// witness — an input missing it at a strictly lower level — dropping
// the rest and re-deriving what the new wiring still reaches.

// propagation holds the fixed-point attribute state for one wiring.
// It is never mutated once built, so it may be shared across goroutines.
type propagation struct {
	attrIn  []secspec.CatSet
	attrOut []secspec.CatSet
	// lv holds the witness levels, node-major with ncat entries per
	// node: lv[n*ncat+c], for a category c missing from attrOut[n], is
	// 0 at a blocker and otherwise above the level of some input of n
	// missing c (BFS levels satisfy this; repaired levels keep it). It
	// is never nil: propagate, propagateDelta and every resolution
	// round build a fixed point together with its levels.
	lv []int32
}

// ncat returns the number of trust categories a propagation tracks,
// the stride of its level array.
func (a *Analysis) ncat() int { return min(max(a.Spec.NumCategories, 0), 32) }

// blocks returns the categories node n never carries out: those its
// module does not accept. Mux pseudo-nodes are transparent.
func (a *Analysis) blocks(n int) secspec.CatSet {
	if n >= a.total {
		return 0
	}
	return secspec.AllCats(a.Spec.NumCategories) &^ a.Spec.Accepts[a.nodeModule[n]]
}

// buildChain derives the preset-chain adjacency the propagation walks:
// pathIn restricted to denoted nodes, without the intra-register edges
// bit i -> bit j (i < j-1). The scan flip-flops of a register are all
// denoted, share the register's module and are preset-linked to each
// later one, so bit j-1's incoming attribute is already below every
// earlier bit's outgoing one: dropping those edges changes neither a
// fixed point nor any attrIn. The build is one pass over pathIn and one
// transpose of the (much smaller) result.
func (a *Analysis) buildChain() {
	dropped := 0
	for _, l := range a.regLen {
		dropped += max(l-1, 0) * max(l-2, 0) / 2
	}
	r := -1 // the register of node j
	a.chainIn = graph.FromRows(a.total, max(a.pathIn.Edges()-dropped, 0), func(j int, dst []int32) []int32 {
		for r+1 < len(a.regOffset) && j == a.regOffset[r+1] {
			r++
		}
		if !a.Denoted[j] {
			return dst
		}
		lo, hi := int32(j), int32(j) // the dropped range [lo, hi)
		if j >= a.nCirc {
			lo, hi = int32(a.regOffset[r]), int32(j-1)
		}
		for _, i := range a.pathIn.Row(j) {
			if (i < lo || i >= hi) && a.Denoted[i] {
				dst = append(dst, i)
			}
		}
		return dst
	})
	a.chainOut = a.chainIn.Transpose()
}

// forInputs calls f for every propagation node feeding active node n
// under nw's wiring: its chain inputs, then its wiring sources.
func (a *Analysis) forInputs(nw *rsn.Network, n int, f func(u int32)) {
	if n < a.total {
		for _, u := range a.chainIn.Row(n) {
			f(u)
		}
	}
	a.forSources(nw, n, f)
}

// forSuccs calls f for every active node node n feeds under wiring w.
func (a *Analysis) forSuccs(w *wiring, n int, f func(d int32)) {
	if n < a.total {
		for _, d := range a.chainOut.Row(n) {
			f(d)
		}
	}
	for _, d := range w.sinks(n) {
		if a.active(int(d)) {
			f(d)
		}
	}
}

// bfsScratch is the state of levelBFS, reusable across calls: the
// frontiers and their masks.
type bfsScratch struct {
	front, next  []int32
	fmask, nmask []secspec.CatSet
}

// levelBFS runs the bit-parallel BFS from the blockers of every
// category over nw's wiring w: on return miss[n] holds the categories
// missing from node n's outgoing attribute and lv[n*ncat+c] the level of
// each. miss must have one entry per propagation node and lv ncat per
// node. It returns the number of frontier visits.
func (a *Analysis) levelBFS(nw *rsn.Network, w *wiring, miss []secspec.CatSet, lv []int32, sc *bfsScratch) int64 {
	size, k := len(miss), a.ncat()
	if len(sc.fmask) < size {
		sc.fmask = make([]secspec.CatSet, size+size/4)
		sc.nmask = make([]secspec.CatSet, size+size/4)
	}
	front := sc.front[:0]
	for n := range miss {
		m := a.blocks(n)
		miss[n] = m
		if m != 0 {
			setLevels(lv[n*k:], m, 0)
			sc.fmask[n] = m
			front = append(front, int32(n))
		}
	}
	visits := int64(0)
	next := sc.next[:0]
	for level := int32(1); len(front) > 0; level++ {
		for _, n := range front {
			f := sc.fmask[n]
			sc.fmask[n] = 0
			visits++
			a.forSuccs(w, int(n), func(d int32) {
				if m := f &^ miss[d]; m != 0 {
					miss[d] |= m
					setLevels(lv[int(d)*k:], m, level)
					if sc.nmask[d] == 0 {
						next = append(next, d)
					}
					sc.nmask[d] |= m
				}
			})
		}
		front, next = next, front[:0]
		sc.fmask, sc.nmask = sc.nmask, sc.fmask
	}
	sc.front, sc.next = front, next
	return visits
}

// setLevels writes level l for every category of m into a node's level
// row.
func setLevels(row []int32, m secspec.CatSet, l int32) {
	for ; m != 0; m &= m - 1 {
		row[bits.TrailingZeros32(uint32(m))] = l
	}
}

// propagate computes the omnidirectional fixed point of security
// attributes over the combined graph from scratch: fixed path edges
// (the preset-chain adjacency) plus the network's current
// inter-register wiring. Scan multiplexers are transparent pseudo-nodes
// (indices a.total..a.total+muxes-1), so the wiring contributes
// O(edges) work instead of flattening mux chains. The level BFS yields
// every outgoing attribute and its witness levels; one pass then
// evaluates the incoming attributes. The fixed point is the unique
// greatest one — the reference every delta must reproduce exactly.
func (a *Analysis) propagate(nw *rsn.Network) *propagation {
	stage := a.eng.Begin("propagate")
	defer stage.End()
	size := a.total + len(nw.Muxes)
	p := &propagation{
		attrIn:  make([]secspec.CatSet, size),
		attrOut: make([]secspec.CatSet, size),
		lv:      make([]int32, size*a.ncat()),
	}
	rs := getRoundState()
	visits := a.levelBFS(nw, a.buildWiring(nw), p.attrOut, p.lv, &rs.sc)
	roundPool.Put(rs)
	all := secspec.AllCats(a.Spec.NumCategories)
	for n, m := range p.attrOut {
		p.attrOut[n] = all &^ m
	}
	for n := range p.attrIn {
		in := all
		if a.active(n) {
			a.forInputs(nw, n, func(u int32) { in &= p.attrOut[u] })
		}
		p.attrIn[n] = in
	}
	stage.AddQueries(visits + int64(a.activeCount(nw)))
	return p
}

// grow returns b resized to n entries, reallocated only when its
// capacity is short.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, n+n/4)
	}
	return b[:n]
}

// nodeAttrs is one node's attributes in a delta.
type nodeAttrs struct {
	n       int32
	in, out secspec.CatSet
}

// attrDiff is what a delta changed relative to its parent fixed point:
// the nodes whose attributes differ (every node of a new mux included)
// and, as (level-array index, level) pairs, the levels of the
// categories it re-derived.
type attrDiff struct {
	nodes  []nodeAttrs
	levels [][2]int32
}

// materialise writes into p the fixed point of a network with size
// nodes that differs from parent's by d — nodes beyond the parent's
// start at top — reusing p's arrays where they are large enough, and
// returns p. When lv is not nil it receives the parent's levels plv
// with d's applied and becomes p's.
func (a *Analysis) materialise(p, parent *propagation, plv []int32, d *attrDiff, size int, lv []int32) *propagation {
	p.attrIn, p.attrOut, p.lv = grow(p.attrIn, size), grow(p.attrOut, size), lv
	all := secspec.AllCats(a.Spec.NumCategories)
	for n := copy(p.attrIn, parent.attrIn); n < size; n++ {
		p.attrIn[n] = all
	}
	for n := copy(p.attrOut, parent.attrOut); n < size; n++ {
		p.attrOut[n] = all
	}
	for _, x := range d.nodes {
		p.attrIn[x.n], p.attrOut[x.n] = x.in, x.out
	}
	if lv != nil {
		copy(lv, plv)
		for _, x := range d.levels {
			lv[x[0]] = x[1]
		}
	}
	return p
}

// overlay is a delta's view of its parent fixed point: the attributes
// and levels of the nodes it touched, generation-stamped so a pooled
// overlay resets in O(1). Untouched nodes read through to the parent.
type overlay struct {
	gen                  uint32
	stamp                []uint32         // stamp[n] == gen: node n is touched
	estamp               []uint32         // estamp[n] == gen: node n is re-evaluated
	out                  []secspec.CatSet // a touched node's outgoing attribute
	drop                 []secspec.CatSet // categories it lost witnesses for
	gain                 []secspec.CatSet // categories it newly misses; levels in lv
	pend                 []secspec.CatSet // categories queued for a check
	lv                   []int32
	touched, queue, eval []int32
}

var overlayPool sync.Pool

// reset readies o for a delta over size nodes with k categories.
func (o *overlay) reset(size, k int) {
	if len(o.stamp) < size {
		c := size + size/4
		*o = overlay{stamp: make([]uint32, c), estamp: make([]uint32, c),
			out: make([]secspec.CatSet, c), drop: make([]secspec.CatSet, c),
			gain: make([]secspec.CatSet, c), pend: make([]secspec.CatSet, c),
			touched: o.touched, queue: o.queue, eval: o.eval}
	}
	if len(o.lv) < size*k {
		o.lv = make([]int32, (size+size/4)*k)
	}
	if o.gen++; o.gen == 0 {
		clear(o.stamp)
		clear(o.estamp)
		o.gen = 1
	}
	o.touched, o.queue, o.eval = o.touched[:0], o.queue[:0], o.eval[:0]
}

// repair is one delta in progress: a parent fixed point, its witness
// levels, the new wiring and the overlay holding the difference.
type repair struct {
	a      *Analysis
	nw     *rsn.Network
	w      *wiring
	parent *propagation
	plv    []int32
	all    secspec.CatSet
	k      int
	*overlay
	visits int64 // input edges examined for witnesses
}

// parentOut returns node n's outgoing attribute in the parent (top for
// a node the parent does not have).
func (r *repair) parentOut(n int32) secspec.CatSet {
	if int(n) < len(r.parent.attrOut) {
		return r.parent.attrOut[n]
	}
	return r.all
}

// outOf returns node n's current outgoing attribute.
func (r *repair) outOf(n int32) secspec.CatSet {
	if r.stamp[n] == r.gen {
		return r.out[n]
	}
	return r.parentOut(n)
}

// level returns node n's current level for a category c it misses.
func (r *repair) level(n int32, c int) int32 {
	if r.stamp[n] == r.gen && r.gain[n]&(1<<c) != 0 {
		return r.lv[int(n)*r.k+c]
	}
	return r.plv[int(n)*r.k+c]
}

// touch brings node n into the overlay.
func (r *repair) touch(n int32) {
	if r.stamp[n] != r.gen {
		r.stamp[n] = r.gen
		r.out[n] = r.parentOut(n)
		r.drop[n], r.gain[n], r.pend[n] = 0, 0, 0
		r.touched = append(r.touched, n)
	}
}

// push queues categories m for a check at touched node n.
func (r *repair) push(n int32, m secspec.CatSet) {
	if m == 0 {
		return
	}
	if r.pend[n] == 0 {
		r.queue = append(r.queue, n)
	}
	r.pend[n] |= m
}

// drain pops queued nodes, with their pending categories, into step
// until the queue is empty.
func (r *repair) drain(step func(n int32, q secspec.CatSet)) {
	for head := 0; head < len(r.queue); head++ {
		n := r.queue[head]
		q := r.pend[n]
		r.pend[n] = 0
		step(n, q)
	}
	r.queue = r.queue[:0]
}

// keep checks the categories q that node n misses: each keeps missing
// only with a witness, an input still missing it at a strictly lower
// level — the strict order rules out cyclic self-support. The rest are
// dropped, and n's successors re-check them.
func (r *repair) keep(n int32, q secspec.CatSet) {
	a := r.a
	if q &^= r.out[n] | a.blocks(int(n)); q == 0 {
		return
	}
	row := r.plv[int(n)*r.k:]
	var sup secspec.CatSet
	a.forInputs(r.nw, int(n), func(u int32) {
		if sup == q {
			return
		}
		r.visits++
		for m := q &^ sup &^ r.outOf(u); m != 0; m &= m - 1 {
			if c := bits.TrailingZeros32(uint32(m)); r.plv[int(u)*r.k+c] < row[c] {
				sup |= 1 << c
			}
		}
	})
	lost := q &^ sup
	if lost == 0 {
		return
	}
	r.out[n] |= lost
	r.drop[n] |= lost
	a.forSuccs(r.w, int(n), func(d int32) {
		r.touch(d)
		r.push(d, lost&^r.out[d])
	})
}

// rederive checks the categories q that node n carries: each it now
// misses when some input misses it, at one level above the lowest such
// input. The gain spreads to n's successors.
func (r *repair) rederive(n int32, q secspec.CatSet) {
	a := r.a
	if q &= r.out[n]; q == 0 {
		return
	}
	var best [32]int32
	var g secspec.CatSet
	a.forInputs(r.nw, int(n), func(u int32) {
		r.visits++
		for m := q &^ r.outOf(u); m != 0; m &= m - 1 {
			c := bits.TrailingZeros32(uint32(m))
			if l := r.level(u, c) + 1; g&(1<<c) == 0 || l < best[c] {
				best[c] = l
			}
			g |= 1 << c
		}
	})
	if g == 0 {
		return
	}
	r.out[n] &^= g
	r.gain[n] |= g
	row := r.lv[int(n)*r.k:]
	for m := g; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(uint32(m))
		row[c] = best[c]
	}
	a.forSuccs(r.w, int(n), func(d int32) {
		r.touch(d)
		r.push(d, g&r.out[d])
	})
}

// reevaluate adds node n to the re-evaluation set.
func (r *repair) reevaluate(n int32) {
	if r.estamp[n] != r.gen {
		r.estamp[n] = r.gen
		r.eval = append(r.eval, n)
	}
}

// delta repairs parent's fixed point, whose witness levels are plv,
// for nw's wiring w, whose changed-input nodes are seeds. It returns
// the change in the number of violating nodes and node v's repaired
// incoming attribute; when d is not nil, the difference to the repaired
// fixed point is appended to it.
//
// Exactness. Let K be a category's missing set after the keep-or-drop
// pass. Every node of K has a chain of witnesses with strictly falling
// levels that ends at a blocker, so K lies inside the new fixed
// point's missing set, which is then the forward closure of K over the
// new edges (blockers are in K). A node outside K with an input in K
// either was dropped or, if it carried the category in the parent,
// gets that input over an edge the change inserted — so it is a seed.
// The re-derive pass starts from exactly these and spreads forward.
// Only seeds and successors of flipped nodes can see a different
// incoming attribute, so re-evaluating them finds every change.
func (a *Analysis) delta(parent *propagation, plv []int32, w *wiring, nw *rsn.Network, seeds []int32, v int, d *attrDiff) (int, secspec.CatSet) {
	// A high-frequency stage (one per candidate trial); sample its span
	// via the tracer (SampleEvery("propagate-delta", n)) on large runs.
	stage := a.eng.Begin("propagate-delta")
	defer stage.End()
	size := a.total + len(nw.Muxes)
	o, _ := overlayPool.Get().(*overlay)
	if o == nil {
		o = &overlay{}
	}
	defer overlayPool.Put(o)
	o.reset(size, a.ncat())
	r := &repair{a: a, nw: nw, w: w, parent: parent, plv: plv,
		all: secspec.AllCats(a.Spec.NumCategories), k: a.ncat(), overlay: o}

	var live []int32 // the active seeds
	for _, s := range seeds {
		if a.active(int(s)) {
			live = append(live, s)
		}
	}
	for _, s := range live {
		r.touch(s)
		r.push(s, r.all&^r.out[s])
	}
	r.drain(r.keep)
	for _, n := range r.touched {
		r.push(n, r.drop[n])
	}
	for _, s := range live {
		r.push(s, r.out[s])
	}
	r.drain(r.rederive)

	for _, s := range live {
		r.reevaluate(s)
	}
	for _, n := range r.touched {
		if r.out[n] != r.parentOut(n) {
			r.reevaluate(n)
			a.forSuccs(w, int(n), r.reevaluate)
		}
	}
	dv, inV := 0, r.all
	if v < len(parent.attrIn) {
		inV = parent.attrIn[v]
	}
	if d != nil {
		d.nodes = slices.Grow(d.nodes, len(r.eval))
	}
	for _, n := range r.eval {
		in := r.all
		a.forInputs(nw, int(n), func(u int32) { in &= r.outOf(u) })
		out, pin := r.outOf(n), r.all
		if int(n) < len(parent.attrIn) {
			pin = parent.attrIn[n]
		}
		if int(n) == v {
			inV = in
		}
		if d != nil && (in != pin || out != r.parentOut(n)) {
			d.nodes = append(d.nodes, nodeAttrs{n, in, out})
		}
		if int(n) < a.total {
			trust := a.Spec.Trust[a.nodeModule[n]]
			if !pin.Has(trust) {
				dv--
			}
			if !in.Has(trust) {
				dv++
			}
		}
	}
	if d != nil {
		for _, n := range r.touched {
			for m := r.gain[n]; m != 0; m &= m - 1 {
				i := int(n)*r.k + bits.TrailingZeros32(uint32(m))
				d.levels = append(d.levels, [2]int32{int32(i), r.lv[i]})
			}
		}
	}

	evals := int64(len(r.eval))
	stage.AddItems(evals)
	stage.AddQueries(r.visits + evals)
	saved := int64(a.activeCount(nw)) - evals
	stage.AddSaved(saved)
	stage.SetAttrs(obs.Int("reevaluated", evals), obs.Int("saved", saved),
		obs.Int("witness_visits", r.visits))
	return dv, inV
}

// propagateDelta computes the fixed point of nw's wiring, with its
// witness levels, by repairing the parent network's fixed point (see
// delta).
func (a *Analysis) propagateDelta(parent *propagation, parentNW, nw *rsn.Network) *propagation {
	rs := getRoundState()
	defer roundPool.Put(rs)
	d := rs.diff()
	defer rs.release()
	a.delta(parent, parent.lv, a.buildWiring(nw), nw, a.seeds(nw.ChangedInputs(parentNW)), 0, d)
	size := a.total + len(nw.Muxes)
	return a.materialise(&propagation{}, parent, parent.lv, d, size, make([]int32, size*a.ncat()))
}

// roundState is the state a resolution carries from round to round,
// pooled across resolutions and fixed-point deltas: two fixed points
// with their witness levels, used in turn — the round's, which its
// trials read, and the next round's, into which the winner's diff is
// materialised — the trials' diff buffers, the BFS scratch and the
// culprit search's scratch.
type roundState struct {
	turn  int
	p     [2]propagation
	lv    [2][]int32
	sc    bfsScratch
	chain chainScratch
	// mu guards the diff buffers, which concurrent trials take: free
	// ones, and those handed out since the last release.
	mu         sync.Mutex
	free, used []*attrDiff
}

var roundPool sync.Pool

// getRoundState takes a round state from the pool; return it with
// roundPool.Put.
func getRoundState() *roundState {
	if rs, _ := roundPool.Get().(*roundState); rs != nil {
		return rs
	}
	return &roundState{}
}

// next returns the fixed point and the level array, of n entries, not
// used by the current round.
func (rs *roundState) next(n int) (*propagation, []int32) {
	rs.turn ^= 1
	rs.lv[rs.turn] = grow(rs.lv[rs.turn], n)
	return &rs.p[rs.turn], rs.lv[rs.turn]
}

// diff hands out an empty diff buffer, valid until release.
func (rs *roundState) diff() *attrDiff {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	d := &attrDiff{}
	if n := len(rs.free); n > 0 {
		d, rs.free = rs.free[n-1], rs.free[:n-1]
		d.nodes, d.levels = d.nodes[:0], d.levels[:0]
	}
	rs.used = append(rs.used, d)
	return d
}

// release takes back every diff buffer handed out.
func (rs *roundState) release() {
	rs.free = append(rs.free, rs.used...)
	rs.used = rs.used[:0]
}
