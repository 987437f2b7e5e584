package netlist

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// This file implements the classic ISCAS-89 ".bench" netlist format so
// generated circuits can be persisted and exchanged:
//
//	# comment
//	# @module crypto          <- extension: module of following DFFs
//	INPUT(pi0)
//	OUTPUT(g7)
//	f1 = DFF(d1)
//	d1 = AND(pi0, f1)
//	g7 = NAND(f1, pi0)
//
// Supported functions: AND, OR, NAND, NOR, XOR, XNOR, NOT, BUFF, MUX,
// MAJ (extensions), CONST0, CONST1, DFF. Signals may be declared in any
// order.

// benchFuncs lists the function keywords, upper case, in the order
// benchGate.fn indexes them. The first three are not combinational gates.
var benchFuncs = [...]struct {
	name string
	gate GateType
}{
	{"DFF", 0}, {"CONST0", 0}, {"CONST1", 0},
	{"AND", And}, {"OR", Or}, {"NAND", Nand}, {"NOR", Nor}, {"XOR", Xor},
	{"XNOR", Xnor}, {"NOT", Not}, {"BUFF", Buf}, {"BUF", Buf}, {"MUX", Mux},
	{"MAJ", Maj},
}

const (
	funcUnknown int8 = -1
	funcDFF     int8 = 0
	funcConst0  int8 = 1
	funcConst1  int8 = 2
)

// benchMaxLine is the length (newline excluded) from which ParseBench
// refuses a line with bufio.ErrTooLong, the limit of a bufio.Scanner
// whose buffer is capped at 16 MiB. A gate with a very wide fan-in still
// fits.
const benchMaxLine = 16 << 20

var nameByGate = map[GateType]string{
	And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", Not: "NOT", Buf: "BUFF",
	Mux: "MUX", Maj: "MAJ",
}

// WriteBench renders the netlist in .bench format. Flip-flop and input
// names are preserved; gate nodes get synthetic names. Module
// membership is recorded with "# @module" pragmas.
func WriteBench(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	name := make([]string, len(n.Nodes))
	used := map[string]bool{}
	uniq := func(base string, id NodeID) string {
		cand := base
		if cand == "" || used[cand] {
			cand = fmt.Sprintf("n%d", id)
			for used[cand] {
				cand = "x" + cand
			}
		}
		used[cand] = true
		return cand
	}
	for _, id := range n.Inputs {
		name[id] = uniq(n.Nodes[id].Name, id)
		fmt.Fprintf(bw, "INPUT(%s)\n", name[id])
	}
	for i := range n.FFs {
		id := n.FFs[i].Node
		name[id] = uniq(n.FFs[i].Name, id)
	}
	// Name the remaining nodes.
	for id := range n.Nodes {
		if name[id] == "" {
			name[id] = uniq("", NodeID(id))
		}
	}
	// Constants.
	for id := range n.Nodes {
		switch n.Nodes[id].Kind {
		case KindConst0:
			fmt.Fprintf(bw, "%s = CONST0()\n", name[id])
		case KindConst1:
			fmt.Fprintf(bw, "%s = CONST1()\n", name[id])
		}
	}
	// Gates in topological order.
	for _, id := range n.TopoOrder() {
		nd := &n.Nodes[id]
		ins := make([]string, len(nd.Fanin))
		for i, f := range nd.Fanin {
			ins[i] = name[f]
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", name[id], nameByGate[nd.Gate], strings.Join(ins, ", "))
	}
	// Flip-flops, grouped by module for compact pragmas.
	order := make([]int, len(n.FFs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return n.FFs[order[a]].Module < n.FFs[order[b]].Module })
	lastModule := -1
	for _, i := range order {
		ff := &n.FFs[i]
		if ff.Module != lastModule {
			mod := "default"
			if ff.Module >= 0 && ff.Module < len(n.Modules) {
				mod = n.Modules[ff.Module]
			}
			fmt.Fprintf(bw, "# @module %s\n", mod)
			lastModule = ff.Module
		}
		if ff.D == NoNode {
			return fmt.Errorf("netlist: flip-flop %q unwired; cannot serialize", ff.Name)
		}
		fmt.Fprintf(bw, "%s = DFF(%s)\n", name[ff.Node], name[ff.D])
	}
	return bw.Flush()
}

// ParseBench reads a .bench description into a netlist.
//
// Nodes are numbered inputs first and flip-flops second, both in file
// order, then gates in placement order: passes over the gates in file
// order, each placing every gate whose arguments are all declared when
// the pass reaches it (constants are placed in the first pass). Content
// keys, session rehydration and the SAT search depend on this numbering.
// The input is copied once; signal names are substrings of that copy.
func ParseBench(r io.Reader) (*Netlist, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	var p benchReader
	if err := p.read(sb.String()); err != nil {
		return nil, err
	}
	return p.build()
}

// benchReader holds a .bench file between reading and building. Signal
// names are interned once; records refer to them by index.
type benchReader struct {
	ids    map[string]int32 // signal name -> index into names
	names  []string
	inputs []int32
	ffs    []benchFF
	gates  []benchGate
	args   []int32 // gate arguments, sliced by benchGate.off and n
	badFn  string  // name of the first unknown function, as written
	sawBad bool

	n     *Netlist
	node  []NodeID // name index -> declared node, NoNode until declared
	fanin []NodeID // slab holding every gate's fan-in
}

type benchGate struct {
	out, off, n, line int32
	fn                int8 // index into benchFuncs, or funcUnknown
}

type benchFF struct {
	out, d, line int32
	module       string
}

// read splits src into lines and records inputs, flip-flops and gates.
// It reports line-level errors; everything that depends on other lines
// is checked by build.
func (p *benchReader) read(src string) error {
	// Pre-size from the line count, capped by size so that blank lines
	// cannot inflate the tables.
	hint := min(strings.Count(src, "\n")+1, len(src)/16+1)
	p.ids = make(map[string]int32, hint)
	p.names = make([]string, 0, hint)
	p.gates = make([]benchGate, 0, hint)
	module := "default"
	for lineNo := 1; src != ""; lineNo++ {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		if len(line) >= benchMaxLine {
			return bufio.ErrTooLong
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case line[0] == '#':
			rest := strings.TrimSpace(line[1:])
			if m, ok := strings.CutPrefix(rest, "@module"); ok {
				if m = strings.TrimSpace(m); m != "" {
					module = m
				}
			}
		case hasUpperPrefix(line, "INPUT(") && line[len(line)-1] == ')':
			p.inputs = append(p.inputs, p.intern(strings.TrimSpace(line[len("INPUT("):len(line)-1])))
		case hasUpperPrefix(line, "OUTPUT(") && line[len(line)-1] == ')':
			// Outputs carry no structure in this model; accepted and
			// ignored for compatibility.
		default:
			if err := p.assignment(line, int32(lineNo), module); err != nil {
				return err
			}
		}
	}
	return nil
}

// assignment records one "out = FN(args)" line.
func (p *benchReader) assignment(line string, lineNo int32, module string) error {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("bench: line %d: expected assignment, got %q", lineNo, line)
	}
	out := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || rhs[len(rhs)-1] != ')' {
		return fmt.Errorf("bench: line %d: malformed function %q", lineNo, rhs)
	}
	name := strings.TrimSpace(rhs[:open])
	fn := lookupBenchFunc(name)
	off := len(p.args)
	if args := strings.TrimSpace(rhs[open+1 : len(rhs)-1]); args != "" {
		for {
			arg, more, found := strings.Cut(args, ",")
			p.args = append(p.args, p.intern(strings.TrimSpace(arg)))
			if !found {
				break
			}
			args = more
		}
	}
	k := len(p.args) - off
	switch {
	case fn == funcDFF:
		if k != 1 {
			return fmt.Errorf("bench: line %d: DFF takes one input", lineNo)
		}
		p.ffs = append(p.ffs, benchFF{out: p.intern(out), d: p.args[off], line: lineNo, module: module})
		p.args = p.args[:off]
		return nil
	case fn == funcUnknown && !p.sawBad:
		p.badFn, p.sawBad = name, true
	}
	p.gates = append(p.gates, benchGate{out: p.intern(out), off: int32(off), n: int32(k), line: lineNo, fn: fn})
	return nil
}

func (p *benchReader) intern(name string) int32 {
	id, ok := p.ids[name]
	if !ok {
		id = int32(len(p.names))
		p.ids[name] = id
		p.names = append(p.names, name)
	}
	return id
}

// build declares inputs, then flip-flops, then places the gates and
// wires the flip-flops' D inputs. Gates are placed only once their
// fan-in exists, so the result is acyclic by construction.
func (p *benchReader) build() (*Netlist, error) {
	n := New()
	size := len(p.inputs) + len(p.ffs) + len(p.gates)
	n.Nodes = slices.Grow(n.Nodes, size)
	n.ffOfNode = slices.Grow(n.ffOfNode, size)
	n.Inputs = slices.Grow(n.Inputs, len(p.inputs))
	n.FFs = slices.Grow(n.FFs, len(p.ffs))
	p.n = n
	p.node = make([]NodeID, len(p.names))
	for i := range p.node {
		p.node[i] = NoNode
	}
	p.fanin = make([]NodeID, 0, len(p.args))

	for _, in := range p.inputs {
		if err := p.declare(in, n.AddInput(p.names[in]), 0); err != nil {
			return nil, err
		}
	}
	modIdx := map[string]int{}
	for i := range p.ffs {
		ff := &p.ffs[i]
		m, ok := modIdx[ff.module]
		if !ok {
			m = n.AddModule(ff.module)
			modIdx[ff.module] = m
		}
		id := n.AddFF(p.names[ff.out], m)
		if err := p.declare(ff.out, n.FFs[id].Node, ff.line); err != nil {
			return nil, err
		}
	}

	// Pass 1: one scan in file order, which places every gate of a
	// topologically sorted file.
	var rest []int32
	for gi := range p.gates {
		g := &p.gates[gi]
		var err error
		switch {
		case g.fn == funcConst0 || g.fn == funcConst1:
			err = p.declare(g.out, n.AddConst(g.fn == funcConst1), g.line)
		case g.fn == funcUnknown:
			return nil, fmt.Errorf("bench: line %d: unknown function %q", g.line, strings.ToUpper(p.badFn))
		case p.ready(g):
			err = p.place(g)
		default:
			rest = append(rest, int32(gi))
		}
		if err != nil {
			return nil, err
		}
	}
	if err := p.placeRest(rest); err != nil {
		return nil, err
	}

	for i := range p.ffs {
		ff := &p.ffs[i]
		d := p.node[ff.d]
		if d == NoNode {
			return nil, fmt.Errorf("bench: line %d: DFF %q references undefined signal %q", ff.line, p.names[ff.out], p.names[ff.d])
		}
		n.FFs[i].D = d
	}
	return n, nil
}

func (p *benchReader) declare(name int32, id NodeID, line int32) error {
	if p.node[name] != NoNode {
		return fmt.Errorf("bench: line %d: signal %q declared twice", line, p.names[name])
	}
	p.node[name] = id
	return nil
}

func (p *benchReader) argsOf(g *benchGate) []int32 { return p.args[g.off : g.off+g.n] }

func (p *benchReader) ready(g *benchGate) bool {
	for _, a := range p.argsOf(g) {
		if p.node[a] == NoNode {
			return false
		}
	}
	return true
}

// place adds gate g, whose arguments are all declared, and declares its
// output. Its fan-in is a capacity-capped window of the slab.
func (p *benchReader) place(g *benchGate) error {
	f := &benchFuncs[g.fn]
	if checkArity(f.gate, int(g.n)) != nil {
		return fmt.Errorf("bench: line %d: invalid arity for %s", g.line, f.name)
	}
	start := len(p.fanin)
	for _, a := range p.argsOf(g) {
		p.fanin = append(p.fanin, p.node[a])
	}
	fanin := p.fanin[start:len(p.fanin):len(p.fanin)]
	return p.declare(g.out, p.n.addNode(Node{Kind: KindGate, Gate: f.gate, Fanin: fanin}), g.line)
}

// placeRest places the gates pass 1 left, in the order further passes
// over the file would: by pass, then by file position. Each gate counts
// its undeclared arguments, and each name lists (CSR) the gates waiting
// on it. Placing gate w releases its waiters: one later in the file is
// reached by the current pass, an earlier one by the next. Cost is
// linear in the arguments plus a heap operation per gate, where repeated
// scans would be quadratic (a reversed chain needs a pass per gate).
func (p *benchReader) placeRest(rest []int32) error {
	if len(rest) == 0 {
		return nil
	}
	missing := make([]int32, len(p.gates))
	start := make([]int32, len(p.names)+1)
	for _, gi := range rest {
		for _, a := range p.argsOf(&p.gates[gi]) {
			if p.node[a] == NoNode {
				missing[gi]++
				start[a]++
			}
		}
	}
	var sum int32
	for a := range start {
		sum += start[a]
		start[a] = sum
	}
	// Stepping start[a] back per waiter leaves name a's waiters in
	// waiters[start[a]:start[a+1]].
	waiters := make([]int32, sum)
	var cur, next gateHeap
	for _, gi := range rest {
		if missing[gi] == 0 {
			cur = append(cur, gi) // ascending, hence already a heap
		}
		for _, a := range p.argsOf(&p.gates[gi]) {
			if p.node[a] == NoNode {
				start[a]--
				waiters[start[a]] = gi
			}
		}
	}
	for len(cur) > 0 {
		for len(cur) > 0 {
			w := heap.Pop(&cur).(int32)
			g := &p.gates[w]
			if err := p.place(g); err != nil {
				return err
			}
			for _, v := range waiters[start[g.out]:start[g.out+1]] {
				if missing[v]--; missing[v] == 0 {
					if v > w {
						heap.Push(&cur, v)
					} else {
						heap.Push(&next, v)
					}
				}
			}
		}
		cur, next = next, cur
	}
	for _, gi := range rest {
		if missing[gi] > 0 {
			g := &p.gates[gi]
			return fmt.Errorf("bench: line %d: unresolved signals in %q (undefined input or combinational cycle)", g.line, p.names[g.out])
		}
	}
	return nil
}

// gateHeap is a min-heap of gate indices for container/heap.
type gateHeap []int32

func (h gateHeap) Len() int           { return len(h) }
func (h gateHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h gateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *gateHeap) Push(x any)        { *h = append(*h, x.(int32)) }
func (h *gateHeap) Pop() any {
	s := *h
	*h = s[:len(s)-1]
	return s[len(s)-1]
}

// lookupBenchFunc returns the index in benchFuncs of function fn,
// ignoring case, or funcUnknown.
func lookupBenchFunc(fn string) int8 {
	if !isASCII(fn) {
		// Unicode case mapping turns some non-ASCII letters into ASCII
		// ones ("ı" into "I"); strings.ToUpper keeps exactly that.
		fn = strings.ToUpper(fn)
	}
	for i := range benchFuncs {
		if equalUpperASCII(fn, benchFuncs[i].name) {
			return int8(i)
		}
	}
	return funcUnknown
}

// hasUpperPrefix reports whether strings.ToUpper(s) starts with the
// upper-case ASCII keyword prefix. It copies s only when the bytes
// compared are not all ASCII.
func hasUpperPrefix(s, prefix string) bool {
	head := s[:min(len(s), len(prefix))]
	if !isASCII(head) {
		return strings.HasPrefix(strings.ToUpper(s), prefix)
	}
	return equalUpperASCII(head, prefix)
}

// equalUpperASCII reports whether s, with ASCII letters upper-cased,
// equals upper.
func equalUpperASCII(s, upper string) bool {
	if len(s) != len(upper) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
