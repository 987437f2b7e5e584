package netlist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// coneReference is the map-based cone extraction ConeWalker replaced:
// the same DFS with a per-call visit map.
func coneReference(n *Netlist, root NodeID) (gates, leaves []NodeID) {
	state := make(map[NodeID]uint8, 32)
	var stack []NodeID
	push := func(id NodeID) {
		if state[id] != 0 {
			return
		}
		if n.Nodes[id].Kind != KindGate {
			state[id] = 2
			leaves = append(leaves, id)
			return
		}
		stack = append(stack, id)
	}
	push(root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		switch state[id] {
		case 0:
			state[id] = 1
			for _, f := range n.Nodes[id].Fanin {
				if state[f] == 0 {
					push(f)
				}
			}
		case 1:
			state[id] = 2
			gates = append(gates, id)
			stack = stack[:len(stack)-1]
		default:
			stack = stack[:len(stack)-1]
		}
	}
	return gates, leaves
}

// checkWalk compares one walk against the reference, including Pos for
// every node of the netlist.
func checkWalk(t *testing.T, n *Netlist, w *ConeWalker, root NodeID) {
	t.Helper()
	gates, leaves := w.Walk(root)
	wantG, wantL := coneReference(n, root)
	if !reflect.DeepEqual(append([]NodeID{}, gates...), append([]NodeID{}, wantG...)) ||
		!reflect.DeepEqual(append([]NodeID{}, leaves...), append([]NodeID{}, wantL...)) {
		t.Fatalf("root %d: walk gave gates %v leaves %v, reference %v %v", root, gates, leaves, wantG, wantL)
	}
	pos := make(map[NodeID]int, len(gates)+len(leaves))
	for i, g := range gates {
		pos[g] = i
	}
	for i, l := range leaves {
		pos[l] = i
	}
	for id := range n.Nodes {
		want, ok := pos[NodeID(id)]
		if !ok {
			want = -1
		}
		if got := w.Pos(NodeID(id)); got != want {
			t.Fatalf("root %d: Pos(%d) = %d, want %d", root, id, got, want)
		}
	}
}

// TestConeWalkerMatchesCone checks the reusable walker against the
// map-based reference on generated netlists: one walker per netlist,
// every node as a root in random order, each root walked twice.
func TestConeWalkerMatchesCone(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := DefaultGenConfig([]string{"a", "b", "c"}, 3+int(seed%3))
		cfg.Depth = 1 + int(seed%4)
		n := Generate(cfg, seed).N
		w := NewConeWalker(n)
		if got := w.Pos(0); got != -1 {
			t.Fatalf("Pos before any walk = %d, want -1", got)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, id := range rng.Perm(len(n.Nodes)) {
			checkWalk(t, n, w, NodeID(id))
			checkWalk(t, n, w, NodeID(id))
		}
		if got := w.Pos(NoNode); got != -1 {
			t.Fatalf("Pos(NoNode) = %d, want -1", got)
		}
	}
}

// TestConeWalkerGrowsWithNetlist checks a walker created before nodes
// were added.
func TestConeWalkerGrowsWithNetlist(t *testing.T) {
	n, f1, _, _ := buildToy()
	w := NewConeWalker(n)
	checkWalk(t, n, w, n.FFs[f1].D)
	in := n.AddInput("late")
	g := n.AddGate(And, n.FFs[f1].D, in)
	checkWalk(t, n, w, g)
}

// TestConeWalkerGenerationWraparound drives the generation counter
// across its wraparound: stamps left by walks before the wrap must not
// read as visited afterwards.
func TestConeWalkerGenerationWraparound(t *testing.T) {
	n := Generate(DefaultGenConfig([]string{"a", "b"}, 4), 3).N
	w := NewConeWalker(n)
	var roots []NodeID
	for i := range n.FFs {
		roots = append(roots, n.FFs[i].D)
	}
	// Leave stamps 1..len(roots) behind, then jump to just before the
	// wrap, so the post-wrap generations reuse exactly those values.
	for _, r := range roots {
		checkWalk(t, n, w, r)
	}
	w.gen = math.MaxUint32 - 1
	for k := 0; k < 3; k++ {
		for i := len(roots) - 1; i >= 0; i-- {
			checkWalk(t, n, w, roots[i])
		}
	}
	if w.gen == 0 || w.gen > uint32(3*len(roots)) {
		t.Fatalf("generation %d after the wrap, want a small restart value", w.gen)
	}
}

// TestConeWalkerDoesNotAllocate checks that a warmed-up walker extracts
// cones without allocating.
func TestConeWalkerDoesNotAllocate(t *testing.T) {
	n := Generate(DefaultGenConfig([]string{"a", "b", "c"}, 4), 1).N
	w := NewConeWalker(n)
	walkAll := func() {
		for i := range n.FFs {
			w.Walk(n.FFs[i].D)
		}
	}
	walkAll()
	if a := testing.AllocsPerRun(10, walkAll); a != 0 {
		t.Fatalf("warm walks allocated %.1f times per run", a)
	}
}
