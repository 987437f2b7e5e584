package rsn

import (
	"fmt"
	"slices"
)

// Change records one structural modification bundle applied by the
// pure or hybrid resolution stage: an input pin cut from its source and
// reconnected elsewhere, plus the multiplexers inserted while
// re-attaching the separated segments.
type Change struct {
	// Cut is the input pin that was disconnected.
	Cut Sink
	// OldSrc and NewSrc are the pin's sources before and after.
	OldSrc, NewSrc Ref
	// NewMuxes counts the inserted multiplexers.
	NewMuxes int
}

// Cost is the structural cost of the change: one for the re-route plus
// one per inserted multiplexer.
func (c Change) Cost() int { return 1 + c.NewMuxes }

func (c Change) String() string {
	return fmt.Sprintf("cut %v<-%v, reconnect to %v (+%d mux)", c.Cut.Elem, c.OldSrc, c.NewSrc, c.NewMuxes)
}

// CutAndReconnect rewires the input pin to a new source and, if the cut
// left the old source without any consumer, re-attaches it so that no
// scan segment dangles (Section III-D of the paper: separated segments
// are connected to multi-cycle predecessors/successors over pure scan
// paths, or to the scan-in/scan-out port when none exists). It returns
// the number of multiplexers inserted.
func (nw *Network) CutAndReconnect(pin Sink, newSrc Ref) (int, error) {
	rw, err := nw.Rewire(pin, newSrc)
	if err != nil {
		return 0, err
	}
	return len(nw.Muxes) - rw.Muxes, nil
}

// Rewiring records the connection changes of one CutAndReconnect so
// they can be inspected and undone: the pins whose source changed, each
// with its previous source, in the order they were changed, and the mux
// count before the change (inserted muxes are appended after it).
type Rewiring struct {
	Pins  []Sink
	Prev  []Ref
	Muxes int
}

// Rewire is CutAndReconnect returning the Rewiring it applied. Resolvers
// score a candidate change by applying it in place, evaluating, and
// undoing it, instead of cloning the network per candidate.
func (nw *Network) Rewire(pin Sink, newSrc Ref) (Rewiring, error) {
	oldSrc := nw.SinkSource(pin)
	if oldSrc == newSrc {
		return Rewiring{}, fmt.Errorf("rsn: cut would not change pin of %v", pin.Elem)
	}
	rw := Rewiring{Muxes: len(nw.Muxes)}
	rw.set(nw, pin, newSrc)
	if (oldSrc.Kind == KRegister || oldSrc.Kind == KMux) && !nw.drives(oldSrc) {
		nw.reattach(oldSrc, &rw)
	}
	return rw, nil
}

// set rewires one pin, recording its previous source.
func (rw *Rewiring) set(nw *Network, pin Sink, src Ref) {
	rw.Pins = append(rw.Pins, pin)
	rw.Prev = append(rw.Prev, nw.SinkSource(pin))
	nw.SetSink(pin, src)
}

// Undo restores the wiring from before rw, which must be the last
// change applied to nw.
func (nw *Network) Undo(rw Rewiring) {
	for i := len(rw.Pins) - 1; i >= 0; i-- {
		nw.SetSink(rw.Pins[i], rw.Prev[i])
	}
	clear(nw.Muxes[rw.Muxes:])
	nw.Muxes = nw.Muxes[:rw.Muxes]
}

// Elems returns the elements whose inputs rw changed, each once: the
// rewired pins' elements in change order, then the inserted muxes.
func (rw Rewiring) Elems(nw *Network) []Ref {
	out := make([]Ref, 0, len(rw.Pins)+len(nw.Muxes)-rw.Muxes)
	for _, p := range rw.Pins {
		if !slices.Contains(out, p.Elem) {
			out = append(out, p.Elem)
		}
	}
	for m := rw.Muxes; m < len(nw.Muxes); m++ {
		out = append(out, Mx(m))
	}
	return out
}

// drives reports whether src feeds any input pin.
func (nw *Network) drives(src Ref) bool {
	for i := range nw.Registers {
		if nw.Registers[i].In == src {
			return true
		}
	}
	for i := range nw.Muxes {
		for _, in := range nw.Muxes[i].Inputs {
			if in == src {
				return true
			}
		}
	}
	return nw.OutSrc == src
}

// reattach gives a dangling source a consumer: it feeds the separated
// segment into a pure-path successor through a new multiplexer, or into
// the scan-out port if no successor exists. Attachment points are
// checked against post-cut reachability so no cycle can be created and
// no new data-flow pairs appear. The changes are recorded in rw.
func (nw *Network) reattach(src Ref, rw *Rewiring) {
	up := nw.reachableBackward(src)  // everything upstream of src
	down := nw.reachableForward(src) // everything downstream of src
	for i := range nw.Registers {
		r := Reg(i)
		if r == src || up.has(r) {
			continue // upstream of src: attaching would create a cycle
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

// EffectiveSources returns the registers (and possibly the scan-in
// port) whose scan output can feed register id, looking through
// multiplexers: the inter-register connectivity of the reconfigurable
// wiring. Sources appear in depth-first order over the mux inputs, each
// once.
func (nw *Network) EffectiveSources(id int) []Ref {
	var out []Ref
	// Dense marks keyed by refIndex; the extra last slot stands for an
	// unconnected input.
	seen := make([]bool, nw.numRefs()+1)
	var walk func(r Ref)
	walk = func(r Ref) {
		i := len(seen) - 1
		if r != NoRef && r.IsValid() {
			i = nw.refIndex(r)
		}
		if seen[i] {
			return
		}
		seen[i] = true
		switch r.Kind {
		case KScanIn, KRegister:
			out = append(out, r)
		case KMux:
			for _, in := range nw.Muxes[r.ID].Inputs {
				walk(in)
			}
		}
	}
	walk(nw.Registers[id].In)
	return out
}

// ChangedInputs returns the elements whose input connections differ
// from parent's: registers with a different scan input (ascending),
// then muxes with a different input list or absent from parent
// (ascending), then the scan-out port if its source differs. The two
// networks must have the same registers; muxes parent has beyond nw's
// count are not reported, since nothing in nw can reference them.
func (nw *Network) ChangedInputs(parent *Network) []Ref {
	var out []Ref
	for r := range nw.Registers {
		if nw.Registers[r].In != parent.Registers[r].In {
			out = append(out, Reg(r))
		}
	}
	for m := range nw.Muxes {
		if m >= len(parent.Muxes) || !refsEqual(nw.Muxes[m].Inputs, parent.Muxes[m].Inputs) {
			out = append(out, Mx(m))
		}
	}
	if nw.OutSrc != parent.OutSrc {
		out = append(out, ScanOut)
	}
	return out
}

// refsEqual reports whether two connection lists are identical.
func refsEqual(x, y []Ref) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
