// Package verify independently checks whether a scan network over a
// circuit satisfies a security specification. It is deliberately a
// second, simpler implementation than the analysis pipeline — direct
// breadth-first reachability over an explicit functional-flow edge
// list, with no bridging, no multi-cycle closure and no attribute
// masks — so the two can cross-validate each other (the role
// specification-and-verification plays in Kochte et al., ETS 2017).
//
// Functional 1-cycle edges are established by exhaustive cone
// enumeration when the cone is small and by the SAT cofactor check
// otherwise; internal flip-flops participate as ordinary graph nodes.
package verify

import (
	"fmt"

	"repro/internal/dep"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Flow is a counterexample: a functional data path from a flip-flop of
// module Src to one of module Dst although Violates(Src, Dst).
type Flow struct {
	Src, Dst       int // module indices
	Path           []string
	UsesScanWiring bool
}

func (f Flow) String() string {
	out := fmt.Sprintf("module %d -> module %d:", f.Src, f.Dst)
	for i, p := range f.Path {
		if i > 0 {
			out += " ->"
		}
		out += " " + p
	}
	return out
}

// Result reports the outcome of one verification.
type Result struct {
	Secure bool
	// Counterexamples holds one flow per violating module pair.
	Counterexamples []Flow
	// Edges is the size of the constructed flow graph.
	Edges int
	// ExhaustiveChecks and SATChecks count how 1-cycle edges were
	// classified.
	ExhaustiveChecks, SATChecks int
}

// maxExhaustiveLeaves bounds the cone size for exhaustive enumeration.
const maxExhaustiveLeaves = 12

// node ids: 0..C-1 circuit FFs; C..C+S-1 scan FFs; then muxes.
type graph struct {
	nw       *rsn.Network
	n        *netlist.Netlist
	nCirc    int
	regOff   []int
	nScan    int
	muxOff   int
	total    int
	adj      [][]int32
	module   []int // -1 for mux nodes
	name     []string
	scanEdge map[int64]bool // encoded src<<32|dst for wiring edges
}

func buildGraph(nw *rsn.Network, n *netlist.Netlist, res *Result) *graph {
	g := &graph{nw: nw, n: n, nCirc: n.NumFFs()}
	g.regOff = make([]int, len(nw.Registers))
	idx := g.nCirc
	for r := range nw.Registers {
		g.regOff[r] = idx
		idx += nw.Registers[r].Len
	}
	g.nScan = idx - g.nCirc
	g.muxOff = idx
	g.total = idx + len(nw.Muxes)
	g.adj = make([][]int32, g.total)
	g.module = make([]int, g.total)
	g.name = make([]string, g.total)
	g.scanEdge = map[int64]bool{}
	for f := 0; f < g.nCirc; f++ {
		g.module[f] = n.FFs[f].Module
		g.name[f] = n.FFs[f].Name
	}
	for r := range nw.Registers {
		for b := 0; b < nw.Registers[r].Len; b++ {
			i := g.regOff[r] + b
			g.module[i] = nw.Registers[r].Module
			g.name[i] = fmt.Sprintf("%s.SF%d", nw.Registers[r].Name, b)
		}
	}
	for m := range nw.Muxes {
		g.module[g.muxOff+m] = -1
		g.name[g.muxOff+m] = nw.Muxes[m].Name
	}

	addEdge := func(from, to int, wiring bool) {
		g.adj[from] = append(g.adj[from], int32(to))
		if wiring {
			g.scanEdge[int64(from)<<32|int64(to)] = true
		}
		res.Edges++
	}

	// Circuit edges: exhaustively or SAT-checked functional 1-cycle
	// dependencies, internal flip-flops included. The cone is extracted
	// and (for the SAT path) encoded once per root by one ConeQuerier,
	// Reset for every root so its walker and solver are reused; every
	// leaf query reuses the root's encoding instead of re-walking the
	// netlist.
	q := dep.NewQuerier(n)
	for b := range n.FFs {
		root := n.FFs[b].D
		if root == netlist.NoNode {
			continue
		}
		q.Reset(root)
		leaves := q.Leaves()
		free := 0
		for _, l := range leaves {
			if k := n.Nodes[l].Kind; k != netlist.KindConst0 && k != netlist.KindConst1 {
				free++
			}
		}
		for _, a := range q.SupportFFs() {
			var functional bool
			if free <= maxExhaustiveLeaves {
				res.ExhaustiveChecks++
				functional = bruteFunctional(n, root, n.FFs[a].Node, leaves)
			} else {
				res.SATChecks++
				functional = q.Depends(n.FFs[a].Node)
			}
			if functional {
				addEdge(int(a), b, false)
			}
		}
	}
	// Register chains (shift) and capture/update links.
	for r := range nw.Registers {
		reg := &nw.Registers[r]
		for b := 0; b < reg.Len; b++ {
			i := g.regOff[r] + b
			if b+1 < reg.Len {
				addEdge(i, i+1, false)
			}
			if c := reg.Capture[b]; c != netlist.NoFF {
				addEdge(int(c), i, false)
			}
			if u := reg.Update[b]; u != netlist.NoFF {
				addEdge(i, int(u), false)
			}
		}
	}
	// Reconfigurable wiring through transparent mux nodes.
	srcNode := func(ref rsn.Ref) int {
		switch ref.Kind {
		case rsn.KRegister:
			return g.regOff[ref.ID] + nw.Registers[ref.ID].Len - 1
		case rsn.KMux:
			return g.muxOff + int(ref.ID)
		}
		return -1
	}
	for r := range nw.Registers {
		if s := srcNode(nw.Registers[r].In); s >= 0 {
			addEdge(s, g.regOff[r], true)
		}
	}
	for m := range nw.Muxes {
		for _, in := range nw.Muxes[m].Inputs {
			if s := srcNode(in); s >= 0 {
				addEdge(s, g.muxOff+m, true)
			}
		}
	}
	return g
}

// bruteFunctional enumerates all assignments of the cone's free leaves.
// leaves is root's cone leaf list, extracted once by the caller.
func bruteFunctional(n *netlist.Netlist, root, leaf netlist.NodeID, leaves []netlist.NodeID) bool {
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
		return false // unreachable: leaves are assigned
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

// Check verifies the network against the specification and returns one
// counterexample flow per violating module pair.
func Check(nw *rsn.Network, circuit *netlist.Netlist, spec *secspec.Spec) *Result {
	res := &Result{Secure: true}
	g := buildGraph(nw, circuit, res)

	// For each module, BFS from all its flip-flop nodes at once.
	for src := 0; src < spec.NumModules(); src++ {
		// Which destination modules matter?
		anyViolating := false
		for dst := 0; dst < spec.NumModules(); dst++ {
			if spec.Violates(src, dst) {
				anyViolating = true
				break
			}
		}
		if !anyViolating {
			continue
		}
		parent := make([]int32, g.total)
		for i := range parent {
			parent[i] = -2 // unvisited
		}
		var queue []int32
		for i := 0; i < g.muxOff; i++ {
			if g.module[i] == src {
				parent[i] = -1
				queue = append(queue, int32(i))
			}
		}
		reported := map[int]bool{}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if mod := g.module[cur]; mod >= 0 && mod != src && spec.Violates(src, mod) && !reported[mod] {
				reported[mod] = true
				res.Secure = false
				res.Counterexamples = append(res.Counterexamples, g.flow(src, mod, parent, cur))
			}
			for _, next := range g.adj[cur] {
				if parent[next] == -2 {
					parent[next] = cur
					queue = append(queue, next)
				}
			}
		}
	}
	return res
}

// flow reconstructs the path to a counterexample node.
func (g *graph) flow(src, dst int, parent []int32, end int32) Flow {
	var rev []int32
	for n := end; n >= 0; n = parent[n] {
		rev = append(rev, n)
	}
	f := Flow{Src: src, Dst: dst}
	for i := len(rev) - 1; i >= 0; i-- {
		n := rev[i]
		f.Path = append(f.Path, g.name[n])
		if i > 0 {
			if g.scanEdge[int64(rev[i])<<32|int64(rev[i-1])] {
				f.UsesScanWiring = true
			}
		}
	}
	return f
}
