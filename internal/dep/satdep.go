package dep

import (
	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// ConeQuerier answers functional-dependence queries for the leaves of
// one root's fan-in cone against a single shared encoding. The cone is
// extracted and Tseitin-encoded exactly once — two copies of the cone
// with per-leaf equality selectors — and each per-leaf cofactor query
// is an incremental solve under assumptions: the queried leaf is pinned
// to 0 in one copy and 1 in the other while every other leaf's
// selector forces the copies equal. Learned clauses accumulate across
// the queries of one root, so classifying all leaves of a root is far
// cheaper than re-encoding the miter per (root, leaf) pair.
//
// A ConeQuerier is reusable: Reset aims it at another root, rebuilding
// the encoding in place on its reset solver. Its per-node tables are
// dense slices indexed by position in the cone (ConeWalker.Pos), so
// after warm-up aiming it at a root allocates nothing. A ConeQuerier is
// not safe for concurrent use; each 1-cycle worker owns one.
type ConeQuerier struct {
	n    *netlist.Netlist
	w    *netlist.ConeWalker
	root netlist.NodeID

	b             *cnf.Builder
	gates, leaves []netlist.NodeID
	// Per leaf (parallel to leaves): the two copy literals and the
	// equality selector (sel -> copyA == copyB). sel is 0 for a leaf
	// that is never queried: a constant or a hard-shared leaf.
	copyA, copyB, sel []sat.Lit
	// Per gate (parallel to gates): div marks gates whose value may
	// differ between the copies; shared is the single-copy encoding of
	// a non-diverging gate, local the current copy's encoding of a
	// diverging one.
	div           []bool
	shared, local []sat.Lit
	// in is the fan-in literal scratch of one gate encoding.
	in []sat.Lit
	// diff is the miter output: true iff the two copies differ.
	diff sat.Lit
	// assume is the reusable assumption scratch buffer.
	assume []sat.Lit
	// prevStats is the solver-counter snapshot taken after the previous
	// Depends call, the baseline for QueryStats deltas.
	prevStats sat.Statistics
}

// NewQuerier returns a reusable querier over n's cones, aimed at no
// root: Depends is false until the first Reset.
func NewQuerier(n *netlist.Netlist) *ConeQuerier {
	return &ConeQuerier{n: n, w: netlist.NewConeWalker(n), b: cnf.NewBuilder()}
}

// NewConeQuerier extracts and encodes root's fan-in cone. It is the
// one-shot form; callers querying many roots should Reset one querier.
func NewConeQuerier(n *netlist.Netlist, root netlist.NodeID) *ConeQuerier {
	q := NewQuerier(n)
	q.Reset(root)
	return q
}

// Reset re-extracts and re-encodes the querier for root's cone, with
// every non-constant leaf queryable, reusing the querier's walker,
// solver and tables. The result answers exactly as NewConeQuerier(n,
// root) does, with the same solver counters.
func (q *ConeQuerier) Reset(root netlist.NodeID) {
	gates, leaves := q.w.Walk(root)
	q.encode(root, gates, leaves, nil)
}

// grow returns s resized to n elements, all zero, reusing its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// encode rebuilds the querier on its reset solver for root's cone,
// which must be the latest walk of q.w (gates and leaves as it
// returned them). queryable (parallel to leaves; nil means all
// non-constant leaves) marks the leaves Depends may later be asked
// about. Every other leaf is hard-shared between the two cone copies —
// a single variable instead of a copy pair plus equality selector —
// which is exactly the "other leaves equal" cofactor condition those
// leaves would always be pinned to anyway. Transitively, any gate whose
// fan-in reaches no queryable leaf computes the same value in both
// copies and is encoded once. When the prefilter has already witnessed
// most leaves, the miter thus collapses to the small sub-cone between
// the unwitnessed leaves and the root.
//
// Depends(leaf) on a non-queryable leaf returns false regardless of the
// true classification — callers restrict queries to the queryable set.
//
// Variables and clauses are created in a fixed order — leaves, then
// single-copy gates, then copy A, copy B and the miter output — so the
// encoding, and with it every solver decision, depends only on the cone
// and queryable.
func (q *ConeQuerier) encode(root netlist.NodeID, gates, leaves []netlist.NodeID, queryable []bool) {
	n, w := q.n, q.w
	q.b.S.Reset()
	b := q.b
	q.root, q.gates, q.leaves = root, gates, leaves
	q.prevStats = sat.Statistics{}
	q.copyA = grow(q.copyA, len(leaves))
	q.copyB = grow(q.copyB, len(leaves))
	q.sel = grow(q.sel, len(leaves))
	q.div = grow(q.div, len(gates))
	q.shared = grow(q.shared, len(gates))
	q.local = grow(q.local, len(gates))
	for i, l := range leaves {
		switch n.Nodes[l].Kind {
		case netlist.KindConst0:
			c := b.Const(false)
			q.copyA[i], q.copyB[i] = c, c
		case netlist.KindConst1:
			c := b.Const(true)
			q.copyA[i], q.copyB[i] = c, c
		default:
			if queryable != nil && !queryable[i] {
				// Hard-shared: both copies read one variable.
				v := b.NewVar()
				q.copyA[i], q.copyB[i] = v, v
				continue
			}
			la, lb, s := b.NewVar(), b.NewVar(), b.NewVar()
			// s -> (la <-> lb): assuming s makes the leaf shared.
			b.S.AddClause(s.Not(), la.Not(), lb)
			b.S.AddClause(s.Not(), la, lb.Not())
			q.copyA[i], q.copyB[i], q.sel[i] = la, lb, s
		}
	}
	// diverges reports whether fan-in node f may differ between the
	// copies: a queryable leaf or a gate reachable from one.
	diverges := func(f netlist.NodeID) bool {
		if n.Nodes[f].Kind == netlist.KindGate {
			return q.div[w.Pos(f)]
		}
		return q.sel[w.Pos(f)] != 0
	}
	// In topological order a gate diverges iff any fan-in does; the
	// others are encoded once, reading shared leaves through copyA.
	for gi, g := range gates {
		nd := &n.Nodes[g]
		div := false
		for _, f := range nd.Fanin {
			if diverges(f) {
				div = true
				break
			}
		}
		if div {
			q.div[gi] = true
			continue
		}
		out := b.NewVar()
		q.in = q.in[:0]
		for _, f := range nd.Fanin {
			if p := w.Pos(f); n.Nodes[f].Kind == netlist.KindGate {
				q.in = append(q.in, q.shared[p])
			} else {
				q.in = append(q.in, q.copyA[p]) // shared leaf (copyA == copyB)
			}
		}
		encodeGate(b, out, nd.Gate, q.in)
		q.shared[gi] = out
	}
	oA := q.encodeCopy(q.copyA)
	oB := q.encodeCopy(q.copyB)
	q.diff = b.Different(oA, oB)
}

// encodeCopy encodes one copy of the diverging gates over the given
// per-leaf literals and returns the copy's root literal.
func (q *ConeQuerier) encodeCopy(leafLit []sat.Lit) sat.Lit {
	n, w, b := q.n, q.w, q.b
	lookup := func(id netlist.NodeID) sat.Lit {
		p := w.Pos(id)
		switch {
		case n.Nodes[id].Kind != netlist.KindGate:
			return leafLit[p]
		case q.div[p]:
			return q.local[p]
		}
		return q.shared[p]
	}
	for gi, g := range q.gates {
		if !q.div[gi] {
			continue
		}
		nd := &n.Nodes[g]
		out := b.NewVar()
		q.in = q.in[:0]
		for _, f := range nd.Fanin {
			q.in = append(q.in, lookup(f))
		}
		encodeGate(b, out, nd.Gate, q.in)
		q.local[gi] = out
	}
	return lookup(q.root)
}

// encodeGate emits the Tseitin clauses of out <-> g(in...).
func encodeGate(b *cnf.Builder, out sat.Lit, g netlist.GateType, in []sat.Lit) {
	switch g {
	case netlist.And:
		b.And(out, in...)
	case netlist.Or:
		b.Or(out, in...)
	case netlist.Nand:
		b.Nand(out, in...)
	case netlist.Nor:
		b.Nor(out, in...)
	case netlist.Xor:
		b.Xor(out, in...)
	case netlist.Xnor:
		b.Xnor(out, in...)
	case netlist.Not:
		b.Not(out, in[0])
	case netlist.Buf:
		b.Buf(out, in[0])
	case netlist.Mux:
		b.Mux(out, in[0], in[1], in[2])
	case netlist.Maj:
		b.Majority3(out, in[0], in[1], in[2])
	}
}

// Leaves returns the cone's leaf nodes (inputs, constants, FF outputs)
// in discovery order. The slice is live until the next Reset; do not
// modify it.
func (q *ConeQuerier) Leaves() []netlist.NodeID { return q.leaves }

// SupportFFs returns the flip-flops in the cone's structural support,
// in leaf discovery order — the same order netlist.SupportFFs reports,
// without re-walking the cone.
func (q *ConeQuerier) SupportFFs() []netlist.FFID {
	var ffs []netlist.FFID
	for _, l := range q.leaves {
		if ff := q.n.FFOfNode(l); ff != netlist.NoFF {
			ffs = append(ffs, ff)
		}
	}
	return ffs
}

// SolverStats returns the underlying solver's cumulative counters
// (decisions, conflicts, ...) across the queries issued so far —
// per-root solver telemetry for query-level trace spans and metrics.
func (q *ConeQuerier) SolverStats() sat.Statistics { return q.b.S.Stats }

// QueryStats returns the solver counters accrued since the previous
// QueryStats call (or since construction): the cost of the queries
// issued in between, rather than the solver-lifetime totals that
// SolverStats reports. Callers attributing work to individual Depends
// calls should read this after each one; the deltas sum to SolverStats.
func (q *ConeQuerier) QueryStats() sat.Statistics {
	cur := q.b.S.Stats
	d := cur.Sub(q.prevStats)
	q.prevStats = cur
	return d
}

// Depends reports whether the root functionally depends on the leaf:
// whether some assignment of the other leaves lets a flip of the leaf
// flip the root — the positive Davio cofactor check of the HVC 2016
// dependency computation. Leaves outside the cone (and constants) are
// never functional.
func (q *ConeQuerier) Depends(leaf netlist.NodeID) bool {
	// Assumption order matters for performance, not correctness: the
	// miter output first, then the equality selectors in leaf order,
	// then the cofactor pins of the tested leaf. Consecutive queries
	// over a root's leaves thus share the assumption prefix
	// [diff, sel_0..sel_{j-1}], which the solver's trail reuse keeps
	// propagated between Solve calls instead of rebuilding from level 0.
	// The same pass over the leaves finds the tested one.
	li := -1
	q.assume = append(q.assume[:0], q.diff)
	for i, l := range q.leaves {
		if l == leaf {
			li = i
		} else if q.sel[i] != 0 {
			q.assume = append(q.assume, q.sel[i])
		}
	}
	if li < 0 || q.sel[li] == 0 {
		return false // not a queryable cone leaf
	}
	q.assume = append(q.assume, q.copyA[li].Not(), q.copyB[li])
	return q.b.S.Solve(q.assume...) == sat.Sat
}

// FunctionalDepends reports whether the value of node root functionally
// depends on the leaf node (a flip-flop output or primary input). It is
// the one-shot form of ConeQuerier; callers issuing several queries
// against the same root should build a ConeQuerier once and reuse it.
func FunctionalDepends(n *netlist.Netlist, root, leaf netlist.NodeID) bool {
	return NewConeQuerier(n, root).Depends(leaf)
}
