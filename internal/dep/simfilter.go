package dep

import (
	"repro/internal/netlist"
)

// This file implements the bit-parallel random-simulation prefilter of
// the 1-cycle computation. A functional dependence query asks whether
// some assignment of the cone's other leaves lets a flip of one leaf
// flip the root — an existential question, so any concrete witness
// settles it positively without a SAT call. The prefilter evaluates the
// cone over 64-wide packed random vectors (one uint64 lane per pattern
// pair: the leaf under test is flipped between the pair, every other
// leaf keeps its lane value), proving most functional dependencies for
// a few cone evaluations each. Simulation can only witness Sat — an
// unwitnessed leaf proves nothing and falls through to the exact
// cofactor miter — so the resulting matrices are bit-identical to the
// pure-SAT path.

// simRounds is the number of 64-pattern simulation rounds per root.
const simRounds = 3

// splitmix64 is a tiny deterministic PRNG (Steele et al., the splitmix64
// generator). Each root seeds its own stream from its node id, so the
// prefilter's verdicts do not depend on worker count or scheduling.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// simGate is one compiled gate: evaluate op over the input slots
// fanin[in:end] into the output slot, 64 patterns per word at once.
type simGate struct {
	op      netlist.GateType
	out     int32
	in, end int32
}

// simCone is one root's fan-in cone compiled to a flat word program:
// integer slots instead of node ids on the evaluation path. Leaves
// occupy the first slots in leaf order, gate outputs follow in
// topological order, so a node's slot follows from its cone position.
// A simCone is reusable: compile rebuilds it in place for another root.
type simCone struct {
	gates []simGate
	fanin []int32 // input slots of every gate, back to back
	words []uint64
	// leafSlots[i] is the word slot of leaves[i]; -1 for constant
	// leaves, whose words are fixed at compile time and never
	// re-randomized.
	leafSlots []int32
	rootSlot  int32
	rng       splitmix64
	evals     int64  // cone evaluations performed
	witnessed []bool // filter's result buffer
}

// compile rebuilds sc for root's cone, which must be the latest walk of
// w (gates and leaves as it returned them). It returns false when the
// cone contains a gate shape the word evaluator does not model (Mux/Maj
// with an arity other than 3); such roots simply skip the prefilter.
func (sc *simCone) compile(n *netlist.Netlist, w *netlist.ConeWalker, root netlist.NodeID, gates, leaves []netlist.NodeID) bool {
	nl := int32(len(leaves))
	slot := func(id netlist.NodeID) int32 {
		if n.Nodes[id].Kind == netlist.KindGate {
			return nl + int32(w.Pos(id))
		}
		return int32(w.Pos(id))
	}
	sc.gates, sc.fanin = sc.gates[:0], sc.fanin[:0]
	for gi, g := range gates {
		nd := &n.Nodes[g]
		if (nd.Gate == netlist.Mux || nd.Gate == netlist.Maj) && len(nd.Fanin) != 3 {
			return false
		}
		in := int32(len(sc.fanin))
		for _, f := range nd.Fanin {
			sc.fanin = append(sc.fanin, slot(f))
		}
		sc.gates = append(sc.gates, simGate{op: nd.Gate, out: nl + int32(gi), in: in, end: int32(len(sc.fanin))})
	}
	sc.words = grow(sc.words, len(leaves)+len(gates))
	sc.leafSlots = sc.leafSlots[:0]
	for i, l := range leaves {
		switch n.Nodes[l].Kind {
		case netlist.KindConst0:
			sc.leafSlots = append(sc.leafSlots, -1)
		case netlist.KindConst1:
			sc.words[i] = ^uint64(0)
			sc.leafSlots = append(sc.leafSlots, -1)
		default:
			sc.leafSlots = append(sc.leafSlots, int32(i))
		}
	}
	sc.rootSlot = slot(root)
	// Deterministic per-root stream: verdicts are independent of
	// worker count and job scheduling.
	sc.rng = splitmix64((uint64(root) + 1) * 0x9e3779b97f4a7c15)
	sc.evals = 0
	return true
}

// eval runs the word program and returns the root's 64-pattern word.
func (sc *simCone) eval() uint64 {
	words := sc.words
	sc.evals++
	for i := range sc.gates {
		g := &sc.gates[i]
		in := sc.fanin[g.in:g.end]
		var v uint64
		switch g.op {
		case netlist.And, netlist.Nand:
			v = ^uint64(0)
			for _, s := range in {
				v &= words[s]
			}
			if g.op == netlist.Nand {
				v = ^v
			}
		case netlist.Or, netlist.Nor:
			for _, s := range in {
				v |= words[s]
			}
			if g.op == netlist.Nor {
				v = ^v
			}
		case netlist.Xor, netlist.Xnor:
			for _, s := range in {
				v ^= words[s]
			}
			if g.op == netlist.Xnor {
				v = ^v
			}
		case netlist.Not:
			v = ^words[in[0]]
		case netlist.Buf:
			v = words[in[0]]
		case netlist.Mux:
			sel := words[in[0]]
			v = (^sel & words[in[1]]) | (sel & words[in[2]])
		case netlist.Maj:
			a, b, c := words[in[0]], words[in[1]], words[in[2]]
			v = (a & b) | (a & c) | (b & c)
		}
		words[g.out] = v
	}
	return words[sc.rootSlot]
}

// filter runs up to simRounds 64-pattern rounds over the leaves named by
// testIdx (indices into the compiled leaf order; all must have live
// slots). witnessed[k] reports that flipping leaves[testIdx[k]] flipped
// the root in some lane — a concrete proof of functional dependence.
// Rounds stop early once every tested leaf is witnessed. The result is
// owned by sc and valid until the next filter.
func (sc *simCone) filter(testIdx []int) (witnessed []bool) {
	sc.witnessed = grow(sc.witnessed, len(testIdx))
	witnessed = sc.witnessed
	remaining := len(testIdx)
	for r := 0; r < simRounds && remaining > 0; r++ {
		for _, s := range sc.leafSlots {
			if s >= 0 {
				sc.words[s] = sc.rng.next()
			}
		}
		base := sc.eval()
		for k, li := range testIdx {
			if witnessed[k] {
				continue
			}
			s := sc.leafSlots[li]
			sc.words[s] = ^sc.words[s]
			flipped := sc.eval()
			sc.words[s] = ^sc.words[s]
			if flipped != base {
				witnessed[k] = true
				remaining--
			}
		}
	}
	return witnessed
}
