// Package netlist models gate-level sequential circuits: combinational
// gates, flip-flops and primary inputs.
//
// It is the "underlying circuit logic" substrate of the secure-data-flow
// method: scan flip-flops of the RSN capture from and update into
// circuit flip-flops, and data can travel further through the circuit
// over multiple clock cycles. Flip-flops that are not connected to the
// scan infrastructure are called internal flip-flops (IF1/IF2 in the
// paper's running example); the dependency analysis bridges over them.
package netlist

import (
	"fmt"
)

// GateType enumerates supported combinational gate functions.
type GateType uint8

// Gate functions. Mux takes fan-in (sel, lo, hi); Maj is 3-input
// majority; the rest are the usual n-ary (or unary) Boolean operators.
const (
	And GateType = iota
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	Mux
	Maj
)

var gateNames = [...]string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX", "MAJ"}

func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", uint8(g))
}

// NodeKind distinguishes the kinds of netlist nodes.
type NodeKind uint8

// Node kinds: primary input, constant 0/1, combinational gate, and the
// Q output of a flip-flop.
const (
	KindInput NodeKind = iota
	KindConst0
	KindConst1
	KindGate
	KindFF
)

// NodeID indexes a node in a Netlist. NoNode marks absent connections.
type NodeID int32

// NoNode is the invalid node id.
const NoNode NodeID = -1

// FFID indexes a flip-flop in a Netlist. NoFF marks absence.
type FFID int32

// NoFF is the invalid flip-flop id.
const NoFF FFID = -1

// Node is one vertex of the combinational netlist graph.
type Node struct {
	Kind  NodeKind
	Gate  GateType // valid when Kind == KindGate
	Fanin []NodeID // gate inputs; empty otherwise
	Name  string   // optional
}

// FF is a D flip-flop. Node is its Q output node; D is the node feeding
// its next state (NoNode until wired). Module indexes Netlist.Modules.
type FF struct {
	Node   NodeID
	D      NodeID
	Name   string
	Module int
}

// Netlist is a sequential circuit. The zero value is an empty circuit
// ready for use.
type Netlist struct {
	Nodes   []Node
	FFs     []FF
	Inputs  []NodeID
	Modules []string

	ffOfNode []FFID // node -> flip-flop id, NoFF for non-FF nodes
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

func (n *Netlist) addNode(nd Node) NodeID {
	id := NodeID(len(n.Nodes))
	n.Nodes = append(n.Nodes, nd)
	n.ffOfNode = append(n.ffOfNode, NoFF)
	return id
}

// AddModule registers a named module and returns its index.
func (n *Netlist) AddModule(name string) int {
	n.Modules = append(n.Modules, name)
	return len(n.Modules) - 1
}

// AddInput adds a primary input node.
func (n *Netlist) AddInput(name string) NodeID {
	id := n.addNode(Node{Kind: KindInput, Name: name})
	n.Inputs = append(n.Inputs, id)
	return id
}

// AddConst adds a constant node.
func (n *Netlist) AddConst(v bool) NodeID {
	k := KindConst0
	if v {
		k = KindConst1
	}
	return n.addNode(Node{Kind: k})
}

// AddGate adds a combinational gate. Arity constraints: Not and Buf are
// unary, Mux and Maj ternary, the rest need at least one input.
func (n *Netlist) AddGate(g GateType, fanin ...NodeID) NodeID {
	if err := checkArity(g, len(fanin)); err != nil {
		panic(err.Error())
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(n.Nodes) {
			panic(fmt.Sprintf("netlist: fanin %d out of range", f))
		}
	}
	cp := make([]NodeID, len(fanin))
	copy(cp, fanin)
	return n.addNode(Node{Kind: KindGate, Gate: g, Fanin: cp})
}

// checkArity reports whether a gate of function g may take k inputs.
func checkArity(g GateType, k int) error {
	switch g {
	case Not, Buf:
		if k != 1 {
			return fmt.Errorf("netlist: %v requires exactly 1 input, got %d", g, k)
		}
	case Mux, Maj:
		if k != 3 {
			return fmt.Errorf("netlist: %v requires exactly 3 inputs, got %d", g, k)
		}
	default:
		if k == 0 {
			return fmt.Errorf("netlist: %v requires at least 1 input", g)
		}
	}
	return nil
}

// AddFF adds a flip-flop in the given module and returns its id. Its D
// input starts unwired (NoNode) so that sequential loops can be built;
// wire it with SetFFInput.
func (n *Netlist) AddFF(name string, module int) FFID {
	node := n.addNode(Node{Kind: KindFF, Name: name})
	id := FFID(len(n.FFs))
	n.FFs = append(n.FFs, FF{Node: node, D: NoNode, Name: name, Module: module})
	n.ffOfNode[node] = id
	return id
}

// SetFFInput wires the D input of a flip-flop.
func (n *Netlist) SetFFInput(ff FFID, d NodeID) {
	if d < 0 || int(d) >= len(n.Nodes) {
		panic(fmt.Sprintf("netlist: D node %d out of range", d))
	}
	n.FFs[ff].D = d
}

// FFOfNode returns the flip-flop whose Q output is the given node, or
// NoFF.
func (n *Netlist) FFOfNode(id NodeID) FFID {
	if id < 0 || int(id) >= len(n.ffOfNode) {
		return NoFF
	}
	return n.ffOfNode[id]
}

// NumNodes returns the number of nodes.
func (n *Netlist) NumNodes() int { return len(n.Nodes) }

// NumFFs returns the number of flip-flops.
func (n *Netlist) NumFFs() int { return len(n.FFs) }

// NumGates returns the number of combinational gates.
func (n *Netlist) NumGates() int {
	c := 0
	for i := range n.Nodes {
		if n.Nodes[i].Kind == KindGate {
			c++
		}
	}
	return c
}

// Validate checks structural sanity: every FF is wired, every fanin
// reference is valid, and the combinational part (treating FF outputs
// and inputs as sources) is acyclic. It returns the first problem found.
func (n *Netlist) Validate() error {
	for i := range n.FFs {
		if n.FFs[i].D == NoNode {
			return fmt.Errorf("netlist: flip-flop %q (ff %d) has unwired D input", n.FFs[i].Name, i)
		}
		if m := n.FFs[i].Module; m < 0 || m >= len(n.Modules) {
			if len(n.Modules) > 0 || m != 0 {
				return fmt.Errorf("netlist: flip-flop %q references module %d of %d", n.FFs[i].Name, m, len(n.Modules))
			}
		}
	}
	// Combinational cycle detection with an iterative DFS.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(n.Nodes))
	var stack []NodeID
	for start := range n.Nodes {
		if color[start] != white || n.Nodes[start].Kind != KindGate {
			continue
		}
		stack = append(stack[:0], NodeID(start))
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			nd := &n.Nodes[id]
			if color[id] == white {
				color[id] = gray
				if nd.Kind == KindGate {
					for _, f := range nd.Fanin {
						switch color[f] {
						case gray:
							return fmt.Errorf("netlist: combinational cycle through node %d", f)
						case white:
							if n.Nodes[f].Kind == KindGate {
								stack = append(stack, f)
							} else {
								color[f] = black
							}
						}
					}
				}
			} else {
				color[id] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// TopoOrder returns the gate nodes in a topological order (fanin before
// fanout). FF outputs, inputs and constants are sources and not listed.
func (n *Netlist) TopoOrder() []NodeID {
	order := make([]NodeID, 0, len(n.Nodes))
	state := make([]uint8, len(n.Nodes)) // 0 new, 1 expanded, 2 done
	var stack []NodeID
	for start := range n.Nodes {
		if state[start] != 0 || n.Nodes[start].Kind != KindGate {
			continue
		}
		stack = append(stack[:0], NodeID(start))
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			switch state[id] {
			case 0:
				state[id] = 1
				for _, f := range n.Nodes[id].Fanin {
					if state[f] == 0 && n.Nodes[f].Kind == KindGate {
						stack = append(stack, f)
					}
				}
			case 1:
				state[id] = 2
				order = append(order, id)
				stack = stack[:len(stack)-1]
			default:
				stack = stack[:len(stack)-1]
			}
		}
	}
	return order
}

// Cone computes the combinational fan-in cone of root: the gate nodes of
// the cone in topological order, and the leaves (inputs, constants and
// FF outputs) it depends on. It is the one-shot form of ConeWalker;
// callers walking many cones of one netlist should reuse a walker.
func (n *Netlist) Cone(root NodeID) (gates []NodeID, leaves []NodeID) {
	return NewConeWalker(n).Walk(root)
}

// ConeWalker extracts fan-in cones of one netlist, reusing its scratch
// across walks: after warm-up a walk allocates nothing and costs time
// proportional to the cone, not to the netlist. Visit marks are
// generation-stamped per node, so starting a walk clears nothing, and
// Reset re-aims the walker at another netlist, keeping its scratch. A
// ConeWalker is not safe for concurrent use.
type ConeWalker struct {
	n *Netlist
	// stamp[id] == gen marks id as visited by the current walk; pos[id]
	// is then its index in gates or leaves, or -1 while a gate's fan-in
	// is still being expanded.
	stamp []uint32
	pos   []int32
	gen   uint32

	stack         []NodeID
	gates, leaves []NodeID
}

// NewConeWalker returns a walker over n's cones.
func NewConeWalker(n *Netlist) *ConeWalker {
	return &ConeWalker{n: n}
}

// Reset re-aims the walker at n's cones. Its scratch is kept and grows
// on the first walk if n has more nodes; no node is in the latest cone
// until then.
func (w *ConeWalker) Reset(n *Netlist) {
	w.n = n
	w.nextGen()
}

// nextGen starts a new visit generation: no stamp reads as current.
func (w *ConeWalker) nextGen() {
	w.gen++
	if w.gen == 0 {
		// Wrapped: a stamp left by a walk 2^32 walks ago would read as
		// current, so clear every stamp once and restart at 1.
		clear(w.stamp)
		w.gen = 1
	}
}

// Walk extracts root's fan-in cone: the gate nodes in topological order
// and the leaves (inputs, constants and FF outputs) in discovery order,
// exactly as Cone returns them. The slices are owned by the walker and
// valid until the next Walk; do not modify them.
func (w *ConeWalker) Walk(root NodeID) (gates []NodeID, leaves []NodeID) {
	n := w.n
	if len(w.stamp) < len(n.Nodes) {
		w.stamp = append(w.stamp, make([]uint32, len(n.Nodes)-len(w.stamp))...)
		w.pos = append(w.pos, make([]int32, len(n.Nodes)-len(w.pos))...)
	}
	w.nextGen()
	gen := w.gen
	w.gates, w.leaves = w.gates[:0], w.leaves[:0]
	// push marks leaves done on sight; gates go on the stack, possibly
	// more than once — only the first expansion counts.
	push := func(id NodeID) {
		if w.stamp[id] == gen {
			return
		}
		if n.Nodes[id].Kind != KindGate {
			w.stamp[id] = gen
			w.pos[id] = int32(len(w.leaves))
			w.leaves = append(w.leaves, id)
			return
		}
		w.stack = append(w.stack, id)
	}
	push(root)
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		switch {
		case w.stamp[id] != gen: // new: expand
			w.stamp[id] = gen
			w.pos[id] = -1
			for _, f := range n.Nodes[id].Fanin {
				push(f)
			}
		case w.pos[id] < 0: // expanded: every fan-in is done
			w.pos[id] = int32(len(w.gates))
			w.gates = append(w.gates, id)
			w.stack = w.stack[:len(w.stack)-1]
		default: // a duplicate stack entry of a finished gate
			w.stack = w.stack[:len(w.stack)-1]
		}
	}
	return w.gates, w.leaves
}

// Pos returns id's index in the gates (for a gate node) or leaves (for
// any other node) of the latest Walk, or -1 if id is not in that cone.
func (w *ConeWalker) Pos(id NodeID) int {
	if id < 0 || int(id) >= len(w.stamp) || w.stamp[id] != w.gen || w.gen == 0 {
		return -1
	}
	return int(w.pos[id])
}

// SupportFFs returns the flip-flops in the structural support of root
// (i.e. FFs whose Q output is a leaf of root's fan-in cone).
func (n *Netlist) SupportFFs(root NodeID) []FFID {
	_, leaves := n.Cone(root)
	var ffs []FFID
	for _, l := range leaves {
		if ff := n.FFOfNode(l); ff != NoFF {
			ffs = append(ffs, ff)
		}
	}
	return ffs
}

// EvalGate computes the gate function over the given input values.
func EvalGate(g GateType, in []bool) bool {
	switch g {
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if g == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if g == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if g == Xnor {
			return !v
		}
		return v
	case Not:
		return !in[0]
	case Buf:
		return in[0]
	case Mux:
		if in[0] {
			return in[2]
		}
		return in[1]
	case Maj:
		c := 0
		for _, x := range in {
			if x {
				c++
			}
		}
		return c >= 2
	}
	panic(fmt.Sprintf("netlist: unknown gate type %d", g))
}

// Simulator evaluates a netlist cycle by cycle.
type Simulator struct {
	n      *Netlist
	order  []NodeID
	values []bool // per node
	state  []bool // per FF
	inputs []bool // per primary input (by position in n.Inputs)
}

// NewSimulator returns a simulator with all state and inputs at 0.
func NewSimulator(n *Netlist) *Simulator {
	return &Simulator{
		n:      n,
		order:  n.TopoOrder(),
		values: make([]bool, len(n.Nodes)),
		state:  make([]bool, len(n.FFs)),
		inputs: make([]bool, len(n.Inputs)),
	}
}

// SetFF sets the current state of a flip-flop.
func (s *Simulator) SetFF(ff FFID, v bool) { s.state[ff] = v }

// FFValue returns the current state of a flip-flop.
func (s *Simulator) FFValue(ff FFID) bool { return s.state[ff] }

// SetInput sets primary input i (position in Netlist.Inputs).
func (s *Simulator) SetInput(i int, v bool) { s.inputs[i] = v }

// Eval evaluates all combinational nodes from the current FF state and
// input values. It returns the value of every node.
func (s *Simulator) Eval() []bool {
	for i, id := range s.n.Inputs {
		s.values[id] = s.inputs[i]
	}
	for i := range s.n.FFs {
		s.values[s.n.FFs[i].Node] = s.state[i]
	}
	for id := range s.n.Nodes {
		switch s.n.Nodes[id].Kind {
		case KindConst0:
			s.values[id] = false
		case KindConst1:
			s.values[id] = true
		}
	}
	var buf [8]bool
	for _, id := range s.order {
		nd := &s.n.Nodes[id]
		in := buf[:0]
		for _, f := range nd.Fanin {
			in = append(in, s.values[f])
		}
		s.values[id] = EvalGate(nd.Gate, in)
	}
	return s.values
}

// Step evaluates the circuit and clocks every flip-flop once.
func (s *Simulator) Step() {
	s.Eval()
	next := make([]bool, len(s.state))
	for i := range s.n.FFs {
		next[i] = s.values[s.n.FFs[i].D]
	}
	copy(s.state, next)
}

// NodeValue returns the value of a node after the last Eval/Step.
func (s *Simulator) NodeValue(id NodeID) bool { return s.values[id] }
