// Package rsn models reconfigurable scan networks (RSNs) in the style
// of IEEE Std 1687: scan registers composed of scan flip-flops, scan
// multiplexers, a scan-in and a scan-out port, and the three global
// control phases capture, shift and update.
//
// The model is the substrate the secure-data-flow method operates on
// (the role the eda1687 tool plays in the paper): it supports
// configuring active scan paths, reasoning about reachability over all
// configurations, structural transformation (cutting and re-connecting
// segments, inserting multiplexers) and cycle-accurate simulation of
// capture/shift/update against an attached gate-level circuit.
package rsn

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// ElemKind distinguishes the kinds of scan network elements a
// connection can reference.
type ElemKind uint8

// Element kinds.
const (
	KScanIn ElemKind = iota // the scan-in port
	KScanOut
	KRegister
	KMux
)

func (k ElemKind) String() string {
	switch k {
	case KScanIn:
		return "scan-in"
	case KScanOut:
		return "scan-out"
	case KRegister:
		return "register"
	case KMux:
		return "mux"
	}
	return fmt.Sprintf("ElemKind(%d)", uint8(k))
}

// Ref identifies a scan network element. For KScanIn/KScanOut the ID is
// unused (0).
type Ref struct {
	Kind ElemKind
	ID   int32
}

// NoRef is the absent connection.
var NoRef = Ref{Kind: KScanIn, ID: -1}

// ScanIn and ScanOut are the port references.
var (
	ScanIn  = Ref{Kind: KScanIn}
	ScanOut = Ref{Kind: KScanOut}
)

// Reg returns a register reference.
func Reg(id int) Ref { return Ref{Kind: KRegister, ID: int32(id)} }

// Mx returns a mux reference.
func Mx(id int) Ref { return Ref{Kind: KMux, ID: int32(id)} }

// IsValid reports whether the reference denotes an element.
func (r Ref) IsValid() bool { return r.ID >= 0 || r.Kind == KScanIn || r.Kind == KScanOut }

func (r Ref) String() string {
	switch r.Kind {
	case KScanIn:
		if r.ID < 0 {
			return "<none>"
		}
		return "SI"
	case KScanOut:
		return "SO"
	case KRegister:
		return fmt.Sprintf("R%d", r.ID)
	case KMux:
		return fmt.Sprintf("M%d", r.ID)
	}
	return "?"
}

// Register is a scan segment: an ordered chain of scan flip-flops with
// one scan input (feeding flip-flop 0) and one scan output (flip-flop
// Len-1). Capture and Update optionally link each scan flip-flop to a
// circuit flip-flop of the attached netlist.
type Register struct {
	Name   string
	Len    int
	In     Ref
	Module int
	// Capture[i] is the circuit FF captured into scan FF i during the
	// capture phase, or netlist.NoFF.
	Capture []netlist.FFID
	// Update[i] is the circuit FF written from scan FF i during the
	// update phase, or netlist.NoFF.
	Update []netlist.FFID
}

// Mux is a scan multiplexer selecting one of its inputs. Selection is
// modeled as free configuration: the security analysis assumes an
// attacker can establish any configuration (the paper's threat model).
type Mux struct {
	Name   string
	Inputs []Ref
}

// Network is a reconfigurable scan network. The zero value is empty and
// usable; scan-out starts unconnected.
type Network struct {
	Name      string
	Registers []Register
	Muxes     []Mux
	OutSrc    Ref // element driving the scan-out port
	Modules   []string
}

// New returns an empty network with an unconnected scan-out.
func New(name string) *Network {
	return &Network{Name: name, OutSrc: NoRef}
}

// AddModule registers a module name and returns its index.
func (nw *Network) AddModule(name string) int {
	nw.Modules = append(nw.Modules, name)
	return len(nw.Modules) - 1
}

// AddRegister adds a scan register of the given length with an
// unconnected input, returning its id.
func (nw *Network) AddRegister(name string, length, module int) int {
	if length <= 0 {
		panic("rsn: register length must be positive")
	}
	cap_ := make([]netlist.FFID, length)
	upd := make([]netlist.FFID, length)
	for i := range cap_ {
		cap_[i] = netlist.NoFF
		upd[i] = netlist.NoFF
	}
	nw.Registers = append(nw.Registers, Register{
		Name: name, Len: length, In: NoRef, Module: module,
		Capture: cap_, Update: upd,
	})
	return len(nw.Registers) - 1
}

// AddMux adds a scan multiplexer over the given inputs, returning its id.
func (nw *Network) AddMux(name string, inputs ...Ref) int {
	cp := make([]Ref, len(inputs))
	copy(cp, inputs)
	nw.Muxes = append(nw.Muxes, Mux{Name: name, Inputs: cp})
	return len(nw.Muxes) - 1
}

// Connect sets the scan input of register id.
func (nw *Network) Connect(id int, src Ref) { nw.Registers[id].In = src }

// ConnectOut sets the element driving the scan-out port.
func (nw *Network) ConnectOut(src Ref) { nw.OutSrc = src }

// SetCapture links scan FF i of register id to capture from circuit FF f.
func (nw *Network) SetCapture(id, i int, f netlist.FFID) { nw.Registers[id].Capture[i] = f }

// SetUpdate links scan FF i of register id to update into circuit FF f.
func (nw *Network) SetUpdate(id, i int, f netlist.FFID) { nw.Registers[id].Update[i] = f }

// NumScanFFs returns the total number of scan flip-flops.
func (nw *Network) NumScanFFs() int {
	n := 0
	for i := range nw.Registers {
		n += nw.Registers[i].Len
	}
	return n
}

// InputsOf returns the source references feeding the element.
func (nw *Network) InputsOf(r Ref) []Ref {
	if r.Kind == KMux {
		return nw.Muxes[r.ID].Inputs
	}
	if in, ok := nw.inputAt(r, 0); ok {
		return []Ref{in}
	}
	return nil
}

// inputAt returns the element's i-th source in InputsOf order, and
// false past the last one. Graph walks iterate it instead of InputsOf,
// which allocates for single-input elements.
func (nw *Network) inputAt(r Ref, i int) (Ref, bool) {
	var in Ref
	switch r.Kind {
	case KMux:
		if ins := nw.Muxes[r.ID].Inputs; i < len(ins) {
			return ins[i], true
		}
		return NoRef, false
	case KRegister:
		in = nw.Registers[r.ID].In
	case KScanOut:
		in = nw.OutSrc
	default:
		return NoRef, false
	}
	if i == 0 && in != NoRef && in.IsValid() {
		return in, true
	}
	return NoRef, false
}

// Validate checks structural sanity: all references in range, scan-out
// connected, the connection graph acyclic, and every register reachable
// from scan-in and able to reach scan-out over some configuration.
//
// After the per-pin checks, one depth-first search over inputs decides
// the rest. Its roots are scan-out, then the registers, then the muxes,
// and it reports the first input found on the open path as the cycle.
// The elements finished under the first root are exactly those that
// reach scan-out. An element is reachable from scan-in exactly when it
// is scan-in or one of its inputs is, which the post-order settles once
// every input is finished; on an acyclic graph every input is.
func (nw *Network) Validate() error {
	// ok is the pure range check; the error strings are built only on
	// the failure path — Validate runs per prospective winner inside
	// the resolve loops, where eager message formatting dominated its
	// cost.
	ok := func(r Ref) bool {
		switch r.Kind {
		case KRegister:
			return int(r.ID) < len(nw.Registers) && r.ID >= 0
		case KMux:
			return int(r.ID) < len(nw.Muxes) && r.ID >= 0
		}
		return true
	}
	for i := range nw.Registers {
		in := nw.Registers[i].In
		if in == NoRef {
			return fmt.Errorf("rsn: register %q (R%d) has unconnected scan input", nw.Registers[i].Name, i)
		}
		if !ok(in) {
			return fmt.Errorf("rsn: register R%d input references %v out of range", i, in)
		}
	}
	for i := range nw.Muxes {
		if len(nw.Muxes[i].Inputs) == 0 {
			return fmt.Errorf("rsn: mux %q (M%d) has no inputs", nw.Muxes[i].Name, i)
		}
		for j, in := range nw.Muxes[i].Inputs {
			if in == NoRef {
				return fmt.Errorf("rsn: mux M%d input %d unconnected", i, j)
			}
			if !ok(in) {
				return fmt.Errorf("rsn: mux M%d input %d references %v out of range", i, j, in)
			}
		}
	}
	if nw.OutSrc == NoRef {
		return fmt.Errorf("rsn: scan-out port unconnected")
	}
	if !ok(nw.OutSrc) {
		return fmt.Errorf("rsn: scan-out references %v out of range", nw.OutSrc)
	}
	s := searchPool.Get().(*searchScratch)
	defer searchPool.Put(s)
	if cyc := nw.searchInputs(s, false); cyc != "" {
		return fmt.Errorf("rsn: scan network contains a cycle through %s", cyc)
	}
	for i := range nw.Registers {
		st := s.state[nw.RefIndex(Reg(i))]
		if st&fromScanIn == 0 {
			return fmt.Errorf("rsn: register R%d not reachable from scan-in", i)
		}
		if st&toScanOut == 0 {
			return fmt.Errorf("rsn: register R%d cannot reach scan-out", i)
		}
	}
	return nil
}

// Element states of Validate's search: on the search path or
// finished, and, once finished, the two reachability facts.
const (
	onPath     = 1
	finished   = 2
	fromScanIn = 4 // scan-in reaches the element
	toScanOut  = 8 // the element reaches scan-out
)

// searchScratch is the state of one search over inputs.
type searchScratch struct {
	state []uint8 // keyed by RefIndex
	stack []inputFrame
	order []Ref // the finished elements, when recorded
}

// inputFrame is one element on the search path: the next input to
// follow and whether a finished input is reachable from scan-in.
type inputFrame struct {
	r      Ref
	idx    int
	fromIn bool
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searchInputs runs Validate's depth-first search into s.state, and
// with record set appends every element to s.order as it finishes. It
// returns the element the search met on its own open path, or "" if the
// graph is acyclic.
func (nw *Network) searchInputs(s *searchScratch, record bool) string {
	n := nw.NumRefs()
	s.state = slices.Grow(s.state[:0], n)[:n]
	clear(s.state)
	nr := len(nw.Registers)
	for k := range n - 1 { // scan-out, the registers, the muxes
		root, done := ScanOut, uint8(finished|toScanOut)
		if k > 0 {
			root, done = Reg(k-1), finished
			if k > nr {
				root = Mx(k - 1 - nr)
			}
		}
		if s.state[nw.RefIndex(root)] != 0 {
			continue
		}
		s.state[nw.RefIndex(root)] = onPath
		s.stack = append(s.stack[:0], inputFrame{r: root})
		for len(s.stack) > 0 {
			f := &s.stack[len(s.stack)-1]
			next, ok := nw.inputAt(f.r, f.idx)
			if !ok {
				st := done
				if f.fromIn || f.r.Kind == KScanIn {
					st |= fromScanIn
				}
				s.state[nw.RefIndex(f.r)] = st
				if record {
					s.order = append(s.order, f.r)
				}
				s.stack = s.stack[:len(s.stack)-1]
				if len(s.stack) > 0 && st&fromScanIn != 0 {
					s.stack[len(s.stack)-1].fromIn = true
				}
				continue
			}
			f.idx++
			switch st := s.state[nw.RefIndex(next)]; {
			case st == onPath:
				return next.String()
			case st == 0:
				s.state[nw.RefIndex(next)] = onPath
				s.stack = append(s.stack, inputFrame{r: next})
			case st&fromScanIn != 0 && next.IsValid():
				// An invalid mux input maps to scan-out's slot, but no
				// data flows out of it, so scan-in reach stops there.
				f.fromIn = true
			}
		}
	}
	return ""
}

// RefIndex maps an element reference to a dense index in
// [0, NumRefs()): registers first, then muxes, then the two ports.
// Attribute propagations and the graph walks key flat per-element
// arrays by it instead of hashing Refs into maps.
func (nw *Network) RefIndex(r Ref) int {
	switch r.Kind {
	case KRegister:
		return int(r.ID)
	case KMux:
		return len(nw.Registers) + int(r.ID)
	case KScanIn:
		return len(nw.Registers) + len(nw.Muxes)
	default:
		return len(nw.Registers) + len(nw.Muxes) + 1
	}
}

// NumRefs returns the size of the dense element index space.
func (nw *Network) NumRefs() int { return len(nw.Registers) + len(nw.Muxes) + 2 }

// Marks is reusable scratch for the network's reachability walks: a
// generation-stamped element set and a stack. Starting a walk costs
// O(1) instead of a fresh array, so per-round walks allocate nothing
// once the marks have grown. The zero value is ready to use; one Marks
// serves one walk at a time.
type Marks struct {
	stamp []uint32
	gen   uint32
	stack []Ref
}

// start begins a walk over n dense slots with every slot unmarked.
func (m *Marks) start(n int) {
	if len(m.stamp) < n {
		// Slack for the muxes later rounds insert.
		m.stamp = make([]uint32, n+n/4+8)
		m.gen = 0
	}
	if m.gen++; m.gen == 0 {
		clear(m.stamp)
		m.gen = 1
	}
	m.stack = m.stack[:0]
}

// visit marks slot i, reporting whether it was unmarked.
func (m *Marks) visit(i int) bool {
	if m.stamp[i] == m.gen {
		return false
	}
	m.stamp[i] = m.gen
	return true
}

// has reports whether slot i is marked.
func (m *Marks) has(i int) bool { return m.stamp[i] == m.gen }

var marksPool = sync.Pool{New: func() any { return new(Marks) }}

// reachableBackward marks in m the elements reachable from r by
// following inputs (i.e. all elements whose data can reach r over some
// configuration), keyed by RefIndex.
func (nw *Network) reachableBackward(r Ref, m *Marks) {
	m.start(nw.NumRefs())
	m.stack = append(m.stack, r)
	for len(m.stack) > 0 {
		cur := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		if !m.visit(nw.RefIndex(cur)) {
			continue
		}
		for i := 0; ; i++ {
			in, ok := nw.inputAt(cur, i)
			if !ok {
				break
			}
			m.stack = append(m.stack, in)
		}
	}
}

// PureReaches reports whether data in element a can reach element b
// over some configuration of pure scan paths (a == b counts as true).
func (nw *Network) PureReaches(a, b Ref) bool {
	m := marksPool.Get().(*Marks)
	defer marksPool.Put(m)
	nw.reachableBackward(b, m)
	return m.has(nw.RefIndex(a))
}

// PurePredecessors returns all registers whose data can reach register
// id over pure scan paths (excluding itself), ascending. The walk runs
// on m.
func (nw *Network) PurePredecessors(id int, m *Marks) []int {
	nw.reachableBackward(Reg(id), m)
	var out []int
	for i := range nw.Registers {
		if i != id && m.has(nw.RefIndex(Reg(i))) {
			out = append(out, i)
		}
	}
	return out
}

// ElementTopoOrder returns every element (registers and muxes, ScanIn
// first, ScanOut last) in a topological order of the connection graph:
// sources before the elements they feed, in the post-order of
// Validate's search. It panics if the network is cyclic; call Validate
// first.
func (nw *Network) ElementTopoOrder() []Ref {
	s := searchPool.Get().(*searchScratch)
	defer searchPool.Put(s)
	s.order = s.order[:0]
	if nw.searchInputs(s, true) != "" {
		panic("rsn: ElementTopoOrder on cyclic network")
	}
	out := make([]Ref, 0, len(s.order)+1)
	out = append(out, ScanIn)
	for _, r := range s.order {
		if r != ScanOut && r != ScanIn {
			out = append(out, r)
		}
	}
	return append(out, ScanOut)
}

// Sink identifies one input pin of an element: the element and the
// input position (always 0 except for muxes).
type Sink struct {
	Elem Ref
	Idx  int
}

// Sinks returns every input pin currently driven by src.
func (nw *Network) Sinks(src Ref) []Sink {
	var out []Sink
	for i := range nw.Registers {
		if nw.Registers[i].In == src {
			out = append(out, Sink{Reg(i), 0})
		}
	}
	for i := range nw.Muxes {
		for j, in := range nw.Muxes[i].Inputs {
			if in == src {
				out = append(out, Sink{Mx(i), j})
			}
		}
	}
	if nw.OutSrc == src {
		out = append(out, Sink{ScanOut, 0})
	}
	return out
}

// SetSink rewires one input pin to a new source.
func (nw *Network) SetSink(s Sink, src Ref) {
	switch s.Elem.Kind {
	case KRegister:
		nw.Registers[s.Elem.ID].In = src
	case KMux:
		nw.Muxes[s.Elem.ID].Inputs[s.Idx] = src
	case KScanOut:
		nw.OutSrc = src
	default:
		panic("rsn: cannot rewire " + s.Elem.String())
	}
}

// SinkSource returns the current source of an input pin.
func (nw *Network) SinkSource(s Sink) Ref {
	switch s.Elem.Kind {
	case KRegister:
		return nw.Registers[s.Elem.ID].In
	case KMux:
		return nw.Muxes[s.Elem.ID].Inputs[s.Idx]
	case KScanOut:
		return nw.OutSrc
	}
	return NoRef
}

// Config assigns a selected input index to each mux.
type Config []int

// NewConfig returns the all-zero configuration for the network.
func (nw *Network) NewConfig() Config { return make(Config, len(nw.Muxes)) }

// PathElement is one scan flip-flop position on an active scan path.
type PathElement struct {
	Register int // register id
	FF       int // flip-flop index inside the register
}

// ActivePath returns the scan flip-flop sequence from scan-in to
// scan-out under the given configuration, or an error if the
// configuration is malformed (dangling selection or a configured loop).
func (nw *Network) ActivePath(cfg Config) ([]PathElement, error) {
	var rev []int // registers from scan-out backwards
	cur := nw.OutSrc
	steps := 0
	limit := len(nw.Registers) + len(nw.Muxes) + 2
	for cur != ScanIn {
		if steps++; steps > limit {
			return nil, fmt.Errorf("rsn: active path does not terminate (configured loop)")
		}
		switch cur.Kind {
		case KRegister:
			rev = append(rev, int(cur.ID))
			cur = nw.Registers[cur.ID].In
		case KMux:
			sel := 0
			if int(cur.ID) < len(cfg) {
				sel = cfg[cur.ID]
			}
			if sel < 0 || sel >= len(nw.Muxes[cur.ID].Inputs) {
				return nil, fmt.Errorf("rsn: mux M%d select %d out of range", cur.ID, sel)
			}
			cur = nw.Muxes[cur.ID].Inputs[sel]
		default:
			return nil, fmt.Errorf("rsn: active path hit %s", cur)
		}
		if cur == NoRef || !cur.IsValid() {
			return nil, fmt.Errorf("rsn: active path hit unconnected input")
		}
	}
	var path []PathElement
	for i := len(rev) - 1; i >= 0; i-- {
		r := rev[i]
		for f := 0; f < nw.Registers[r].Len; f++ {
			path = append(path, PathElement{r, f})
		}
	}
	return path, nil
}

// ConfigsThrough searches for a configuration whose active path
// contains register id. It returns the config and true on success.
func (nw *Network) ConfigsThrough(id int) (Config, bool) {
	// Walk backward from scan-out, preferring branches that reach the
	// register; then walk backward from the register to scan-in.
	cfg := nw.NewConfig()
	target := Reg(id)

	// reach[r] = true if target is backward-reachable from r.
	reach := map[Ref]bool{}
	var canReach func(r Ref) bool
	canReach = func(r Ref) bool {
		if r == target {
			return true
		}
		if v, ok := reach[r]; ok {
			return v
		}
		reach[r] = false // cycle guard; network is acyclic anyway
		for _, in := range nw.InputsOf(r) {
			if canReach(in) {
				reach[r] = true
				return true
			}
		}
		return false
	}
	// From scan-out walk back, configuring muxes toward the target
	// until we pass it, then any terminating choice.
	cur := nw.OutSrc
	passed := false
	steps := 0
	limit := len(nw.Registers) + len(nw.Muxes) + 2
	for cur != ScanIn {
		if steps++; steps > limit {
			return nil, false
		}
		if cur == target {
			passed = true
		}
		switch cur.Kind {
		case KRegister:
			cur = nw.Registers[cur.ID].In
		case KMux:
			sel := -1
			if !passed {
				for j, in := range nw.Muxes[cur.ID].Inputs {
					if canReach(in) {
						sel = j
						break
					}
				}
			}
			if sel < 0 {
				sel = 0 // any branch terminates (acyclic network)
			}
			cfg[cur.ID] = sel
			cur = nw.Muxes[cur.ID].Inputs[sel]
		default:
			return nil, false
		}
		if cur == NoRef || !cur.IsValid() {
			return nil, false
		}
	}
	if !passed {
		return nil, false
	}
	return cfg, true
}

// Stats summarizes structural network properties.
type Stats struct {
	Registers int
	ScanFFs   int
	Muxes     int
}

// Stats returns the structural summary used in Table I.
func (nw *Network) Stats() Stats {
	return Stats{
		Registers: len(nw.Registers),
		ScanFFs:   nw.NumScanFFs(),
		Muxes:     len(nw.Muxes),
	}
}

// Clone returns a deep copy of the network.
func (nw *Network) Clone() *Network {
	cp := &Network{Name: nw.Name, OutSrc: nw.OutSrc}
	cp.Modules = append([]string{}, nw.Modules...)
	cp.Registers = make([]Register, len(nw.Registers))
	for i, r := range nw.Registers {
		nr := r
		nr.Capture = append([]netlist.FFID{}, r.Capture...)
		nr.Update = append([]netlist.FFID{}, r.Update...)
		cp.Registers[i] = nr
	}
	cp.Muxes = make([]Mux, len(nw.Muxes))
	for i, m := range nw.Muxes {
		nm := m
		nm.Inputs = append([]Ref{}, m.Inputs...)
		cp.Muxes[i] = nm
	}
	return cp
}

// cloneWiring returns a copy of nw whose connections — the registers'
// inputs, the muxes and the scan-out source — are its own, while the
// parts rewiring never writes are shared with nw: the registers'
// Capture/Update links and the module names. Trials that only Rewire
// and Undo run on such copies.
func (nw *Network) cloneWiring() *Network {
	cp := *nw
	cp.Modules = slices.Clip(nw.Modules)
	cp.Registers = slices.Clone(nw.Registers)
	cp.Muxes = slices.Clone(nw.Muxes)
	for i := range cp.Muxes {
		cp.Muxes[i].Inputs = slices.Clone(cp.Muxes[i].Inputs)
	}
	return &cp
}
