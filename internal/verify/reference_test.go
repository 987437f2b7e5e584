package verify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// bruteFunctionalReference is the original exhaustive check, kept as a
// test-only reference for coneEval: the leaf assignment lives in a map
// and every evaluated gate allocates its fan-in values.
func bruteFunctionalReference(n *netlist.Netlist, root, leaf netlist.NodeID, leaves []netlist.NodeID) bool {
	var free []netlist.NodeID
	found := false
	for _, l := range leaves {
		if l == leaf {
			found = true
			continue
		}
		if k := n.Nodes[l].Kind; k == netlist.KindConst0 || k == netlist.KindConst1 {
			continue
		}
		free = append(free, l)
	}
	if !found {
		return false
	}
	asg := make(map[netlist.NodeID]bool, len(free)+1)
	var eval func(id netlist.NodeID) bool
	eval = func(id netlist.NodeID) bool {
		if v, ok := asg[id]; ok {
			return v
		}
		nd := &n.Nodes[id]
		switch nd.Kind {
		case netlist.KindConst0:
			return false
		case netlist.KindConst1:
			return true
		case netlist.KindGate:
			in := make([]bool, len(nd.Fanin))
			for i, f := range nd.Fanin {
				in[i] = eval(f)
			}
			return netlist.EvalGate(nd.Gate, in)
		}
		return false
	}
	for m := 0; m < 1<<uint(len(free)); m++ {
		for i, l := range free {
			asg[l] = m>>uint(i)&1 == 1
		}
		asg[leaf] = false
		v0 := eval(root)
		asg[leaf] = true
		v1 := eval(root)
		if v0 != v1 {
			return true
		}
	}
	return false
}

// TestConeEvalMatchesReference compares coneEval with the reference on
// every small cone of random circuits, for every cone leaf and for a
// node outside the cone, with one evaluator reused across all checks
// of a circuit. In half the circuits the generation jumps to just below
// the wrap after the first flip-flop's checks, so the rest run across
// it (TestConeEvalGenerationWrap pins what the wrap must clear).
func TestConeEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checks, dependent := 0, 0
	for iter := 0; iter < 40; iter++ {
		cfg := bench.DefaultCircuitConfig()
		cfg.Depth = 2 + iter%4
		cfg.ReconvergenceRate = float64(iter%3) * 0.3
		g := bench.RandomNetwork(rng, 3+iter%4)
		n := bench.AttachCircuit(g, cfg, rng.Int63()).Circuit
		e := newConeEval(n)
		wrap := iter%2 == 1
		for b := range n.FFs {
			if wrap && e.gen > 0 {
				e.gen = math.MaxUint32 - 1
				wrap = false
			}
			root := n.FFs[b].D
			if root == netlist.NoNode {
				continue
			}
			_, leaves := n.Cone(root)
			if len(leaves) > maxExhaustiveLeaves+1 {
				continue
			}
			probes := append(append([]netlist.NodeID(nil), leaves...), n.FFs[rng.Intn(len(n.FFs))].Node)
			for _, leaf := range probes {
				want := bruteFunctionalReference(n, root, leaf, leaves)
				if got := e.functional(root, leaf, leaves); got != want {
					t.Fatalf("iter %d ff %d leaf %d: coneEval %v, reference %v", iter, b, leaf, got, want)
				}
				checks++
				if want {
					dependent++
				}
			}
		}
	}
	if checks < 1000 || dependent == 0 || dependent == checks {
		t.Fatalf("weak coverage: %d checks, %d dependent", checks, dependent)
	}
}

// TestConeEvalGenerationWrap checks that a stamp left by a check 2^32
// checks ago does not read as assigned. Probing a constant as the leaf
// stamps it with the last assigned value (true); after the wrap, the
// next check reaches that constant as an ordinary node, which must read
// false again.
func TestConeEvalGenerationWrap(t *testing.T) {
	n := netlist.New()
	n.AddModule("m")
	a := n.FFs[n.AddFF("a", 0)].Node
	b := n.FFs[n.AddFF("b", 0)].Node
	c0 := n.AddConst(false)
	and := n.AddGate(netlist.And, a, c0)
	or := n.AddGate(netlist.Or, b, c0)
	e := newConeEval(n)
	_, andLeaves := n.Cone(and)
	if !e.functional(and, c0, andLeaves) { // generation 1
		t.Fatal("AND(a, const) depends on the constant probed as a free leaf")
	}
	e.gen = math.MaxUint32 // the next check wraps around to generation 1
	_, orLeaves := n.Cone(or)
	if !e.functional(or, b, orLeaves) {
		t.Fatal("OR(b, const 0) must depend on b")
	}
}
