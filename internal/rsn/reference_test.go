package rsn

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Test-side references for the rewritten network handling, kept as the
// differential guards of Validate and Rewire:
//   - validateReference is the former three-walk Validate: a cycle
//     search, a forward walk from scan-in over a fanout CSR and a
//     backward walk from scan-out, each on fresh marks;
//   - elementTopoOrderReference is the former ElementTopoOrder, a
//     depth-first search of its own;
//   - rewireReference is the former Rewire, whose reattach searched the
//     cut network for a pure-path successor of the dangling source
//     before falling back to the scan-out port.

// refSet is a dense element set keyed by RefIndex.
type refSet struct {
	nw    *Network
	marks []bool
}

func (s refSet) has(r Ref) bool { return s.marks[s.nw.RefIndex(r)] }

func validateReference(nw *Network) error {
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
	if cyc := findCycleReference(nw); cyc != "" {
		return fmt.Errorf("rsn: scan network contains a cycle through %s", cyc)
	}
	fromIn := reachableForwardReference(nw, ScanIn)
	toOut := reachableBackwardReference(nw, ScanOut)
	for i := range nw.Registers {
		r := Reg(i)
		if !fromIn.has(r) {
			return fmt.Errorf("rsn: register R%d not reachable from scan-in", i)
		}
		if !toOut.has(r) {
			return fmt.Errorf("rsn: register R%d cannot reach scan-out", i)
		}
	}
	return nil
}

// findCycleReference returns a description of an element on a cycle
// of the connection graph, or "" if the graph is acyclic.
func findCycleReference(nw *Network) string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, nw.NumRefs())
	type frame struct {
		r   Ref
		idx int
	}
	var stack []frame
	roots := []Ref{ScanOut}
	for i := range nw.Registers {
		roots = append(roots, Reg(i))
	}
	for i := range nw.Muxes {
		roots = append(roots, Mx(i))
	}
	for _, root := range roots {
		if color[nw.RefIndex(root)] != white {
			continue
		}
		stack = append(stack[:0], frame{root, 0})
		color[nw.RefIndex(root)] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			next, ok := nw.inputAt(f.r, f.idx)
			if !ok {
				color[nw.RefIndex(f.r)] = black
				stack = stack[:len(stack)-1]
				continue
			}
			f.idx++
			switch color[nw.RefIndex(next)] {
			case gray:
				return next.String()
			case white:
				color[nw.RefIndex(next)] = gray
				stack = append(stack, frame{next, 0})
			}
		}
	}
	return ""
}

// reachableBackwardReference returns the elements whose data can reach
// r over some configuration.
func reachableBackwardReference(nw *Network, r Ref) refSet {
	seen := refSet{nw, make([]bool, nw.NumRefs())}
	stack := []Ref{r}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := nw.RefIndex(cur)
		if seen.marks[idx] {
			continue
		}
		seen.marks[idx] = true
		for _, in := range nw.InputsOf(cur) {
			stack = append(stack, in)
		}
	}
	return seen
}

// reachableForwardReference returns the elements r's data can reach
// over some configuration, walking a fanout CSR.
func reachableForwardReference(nw *Network, r Ref) refSet {
	fan := graph.NewCSR(nw.NumRefs(), func(add func(src, dst int)) {
		edge := func(src, dst Ref) {
			if src != NoRef && src.IsValid() {
				add(nw.RefIndex(src), nw.RefIndex(dst))
			}
		}
		for i := range nw.Registers {
			edge(nw.Registers[i].In, Reg(i))
		}
		for i := range nw.Muxes {
			for _, in := range nw.Muxes[i].Inputs {
				edge(in, Mx(i))
			}
		}
		edge(nw.OutSrc, ScanOut)
	})
	seen := refSet{nw, make([]bool, nw.NumRefs())}
	stack := []int32{int32(nw.RefIndex(r))}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen.marks[idx] {
			continue
		}
		seen.marks[idx] = true
		stack = append(stack, fan.Row(int(idx))...)
	}
	return seen
}

// elementTopoOrderReference is the former ElementTopoOrder, a search
// of its own.
func elementTopoOrderReference(nw *Network) []Ref {
	order := make([]Ref, 0, nw.NumRefs())
	state := make([]uint8, nw.NumRefs()) // 0 new, 1 open, 2 done
	type frame struct {
		r   Ref
		ins []Ref // the element's inputs, resolved once per visit
		idx int
	}
	var stack []frame
	var roots []Ref
	roots = append(roots, ScanOut)
	for i := range nw.Registers {
		roots = append(roots, Reg(i))
	}
	for i := range nw.Muxes {
		roots = append(roots, Mx(i))
	}
	for _, root := range roots {
		if state[nw.RefIndex(root)] != 0 {
			continue
		}
		stack = append(stack[:0], frame{root, nw.InputsOf(root), 0})
		state[nw.RefIndex(root)] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx >= len(f.ins) {
				state[nw.RefIndex(f.r)] = 2
				order = append(order, f.r)
				stack = stack[:len(stack)-1]
				continue
			}
			next := f.ins[f.idx]
			f.idx++
			switch state[nw.RefIndex(next)] {
			case 1:
				panic("rsn: ElementTopoOrder on cyclic network")
			case 0:
				if next != ScanIn {
					state[nw.RefIndex(next)] = 1
					stack = append(stack, frame{next, nw.InputsOf(next), 0})
				} else {
					state[nw.RefIndex(next)] = 2
				}
			}
		}
	}
	// ScanIn first, ScanOut naturally last among its ancestors; move
	// ScanOut to the very end for a stable contract.
	out := make([]Ref, 0, len(order)+1)
	out = append(out, ScanIn)
	for _, r := range order {
		if r != ScanOut && r != ScanIn {
			out = append(out, r)
		}
	}
	out = append(out, ScanOut)
	return out
}

func rewireReference(nw *Network, pin Sink, newSrc Ref) (Rewiring, error) {
	oldSrc := nw.SinkSource(pin)
	if oldSrc == newSrc {
		return Rewiring{}, fmt.Errorf("rsn: cut would not change pin of %v", pin.Elem)
	}
	rw := Rewiring{Muxes: len(nw.Muxes)}
	rw.set(nw, pin, newSrc)
	if (oldSrc.Kind == KRegister || oldSrc.Kind == KMux) && !nw.drives(oldSrc) {
		reattachReference(nw, oldSrc, &rw)
	}
	return rw, nil
}

func reattachReference(nw *Network, src Ref, rw *Rewiring) {
	up := reachableBackwardReference(nw, src)
	down := reachableForwardReference(nw, src)
	for i := range nw.Registers {
		r := Reg(i)
		if r == src || up.has(r) {
			continue
		}
		if down.has(r) {
			m := nw.AddMux(fmt.Sprintf("m_reattach_%d", len(nw.Muxes)), nw.Registers[i].In, src)
			rw.set(nw, Sink{r, 0}, Mx(m))
			return
		}
	}
	m := nw.AddMux(fmt.Sprintf("m_reattach_%d", len(nw.Muxes)), nw.OutSrc, src)
	rw.set(nw, Sink{ScanOut, 0}, Mx(m))
}

// randomRef draws a connection for a network of nr registers and nm
// muxes: mostly in-range elements and ports, sometimes scan-out used
// as an input, an unconnected pin, an out-of-range element, a port
// reference with a stray ID or a reference of no element kind at all.
func randomRef(rng *rand.Rand, nr, nm int) Ref {
	switch k := rng.Intn(40); {
	case k == 0:
		return NoRef
	case k == 1:
		return ScanOut
	case k == 2:
		return Reg(nr + rng.Intn(2))
	case k == 3:
		return Mx(nm + rng.Intn(2))
	case k == 4:
		return Ref{Kind: KMux + 1 + ElemKind(rng.Intn(2)), ID: int32(rng.Intn(3)) - 1}
	case k == 5:
		// A port reference with a stray ID: it names the port's slot.
		return Ref{Kind: ElemKind(rng.Intn(2)), ID: []int32{-2, 1, 2}[rng.Intn(3)]}
	case k < 10:
		return ScanIn
	case k < 28 || nm == 0:
		return Reg(rng.Intn(nr))
	default:
		return Mx(rng.Intn(nm))
	}
}

// randomWiring builds a network of random, mostly acyclic wiring: most
// connections read an earlier element, the rest any element, so cycles,
// dangling muxes and registers cut off from either port all occur.
func randomWiring(rng *rand.Rand) *Network {
	nw := New("wiring")
	nr, nm := 1+rng.Intn(7), rng.Intn(5)
	for i := range nr {
		nw.AddRegister(fmt.Sprintf("R%d", i), 1, 0)
	}
	for i := range nm {
		nw.AddMux(fmt.Sprintf("M%d", i))
	}
	// Elements in a random order; an acyclic pick reads one before.
	order := make([]Ref, 0, nr+nm)
	for i := range nr {
		order = append(order, Reg(i))
	}
	for i := range nm {
		order = append(order, Mx(i))
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	pick := func(pos int) Ref {
		if pos > 0 && rng.Intn(8) != 0 && rng.Intn(3) != 0 {
			return order[rng.Intn(pos)]
		}
		if rng.Intn(6) != 0 && pos == 0 {
			return ScanIn
		}
		return randomRef(rng, nr, nm)
	}
	for pos, e := range order {
		if e.Kind == KRegister {
			nw.Connect(int(e.ID), pick(pos))
			continue
		}
		n := 1 + rng.Intn(3)
		if rng.Intn(16) == 0 {
			n = 0
		}
		for range n {
			nw.Muxes[e.ID].Inputs = append(nw.Muxes[e.ID].Inputs, pick(pos))
		}
	}
	if rng.Intn(10) != 0 {
		nw.ConnectOut(pick(len(order)))
	}
	return nw
}

// topoOrder runs an ElementTopoOrder, returning its panic, if any.
func topoOrder(order func(*Network) []Ref, nw *Network) (out []Ref, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return order(nw), ""
}

// TestValidateMatchesReference: on random wirings with cycles, dangling
// muxes, scan-out used as an input, unconnected pins and out-of-range
// references, Validate's one search gives the reference's error text
// (or none) every time, and every kind of verdict occurs.
// ElementTopoOrder, which reuses the search, returns the reference's
// order or panics where it does.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	verdicts := map[string]int{}
	for iter := range 50000 {
		nw := randomWiring(rng)
		got, want := nw.Validate(), validateReference(nw)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: Validate %v, reference %v\n%+v", iter, got, want, nw)
		}
		gotOrder, gotPanic := topoOrder((*Network).ElementTopoOrder, nw)
		wantOrder, wantPanic := topoOrder(elementTopoOrderReference, nw)
		if !slices.Equal(gotOrder, wantOrder) || gotPanic != wantPanic {
			t.Fatalf("iter %d: ElementTopoOrder %v (panic %q), reference %v (panic %q)\n%+v",
				iter, gotOrder, gotPanic, wantOrder, wantPanic, nw)
		}
		kind := "valid"
		if want != nil {
			kind = strings.Map(func(r rune) rune {
				if r >= '0' && r <= '9' || r == '"' {
					return -1
				}
				return r
			}, want.Error())
		}
		verdicts[kind]++
	}
	for _, k := range []string{
		"valid",
		"rsn: register R (R) has unconnected scan input",
		"rsn: register R input references R out of range",
		"rsn: mux M (M) has no inputs",
		"rsn: mux M input  unconnected",
		"rsn: mux M input  references M out of range",
		"rsn: scan-out port unconnected",
		"rsn: scan-out references R out of range",
		"rsn: scan network contains a cycle through R",
		"rsn: scan network contains a cycle through M",
		"rsn: scan network contains a cycle through SO",
		"rsn: scan network contains a cycle through ?",
		"rsn: register R not reachable from scan-in",
		"rsn: register R cannot reach scan-out",
	} {
		if verdicts[k] == 0 {
			t.Errorf("no %q verdict among %v", k, verdicts)
		}
	}
}
