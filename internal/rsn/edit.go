package rsn

import (
	"fmt"
	"slices"
	"strconv"
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
// scan segment dangles: a new multiplexer feeds it to the scan-out port
// (see reattach for how this narrows Section III-D). It returns the
// number of multiplexers inserted.
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
	return nw.rewire(pin, newSrc, nil)
}

// rewire is Rewire deciding with drivesAfter whether the cut left the
// old source driving nothing.
func (nw *Network) rewire(pin Sink, newSrc Ref, fed func(Ref) int) (Rewiring, error) {
	oldSrc := nw.SinkSource(pin)
	if oldSrc == newSrc {
		return Rewiring{}, fmt.Errorf("rsn: cut would not change pin of %v", pin.Elem)
	}
	rw := Rewiring{Muxes: len(nw.Muxes)}
	rw.set(nw, pin, newSrc)
	if (oldSrc.Kind == KRegister || oldSrc.Kind == KMux) && !nw.drivesAfter(oldSrc, pin, fed) {
		nw.reattach(oldSrc, &rw)
	}
	return rw, nil
}

// drivesAfter reports whether src, just cut from pin, still feeds an
// input pin: with fed (see Rounds.Fed), whether its round-start count
// less pin leaves one, or it drives scan-out; otherwise by a scan.
func (nw *Network) drivesAfter(src Ref, pin Sink, fed func(Ref) int) bool {
	if fed == nil {
		return nw.drives(src)
	}
	return fed(src) > 1 || fed(src) == 1 && pin.Elem.Kind == KScanOut || nw.OutSrc == src
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

// reattach gives a dangling source a consumer: a new multiplexer over
// the scan-out port's current source and src takes over the port. src
// drives nothing, so the mux closes no cycle, and every register that
// reached scan-out still does. The changes are recorded in rw.
//
// This narrows Section III-D, which also lets a separated segment
// re-attach to a multi-cycle pure-path successor: the cut source has
// no successor left, so the port is the one attachment point used.
func (nw *Network) reattach(src Ref, rw *Rewiring) {
	m := nw.AddMux("m_reattach_"+strconv.Itoa(len(nw.Muxes)), nw.OutSrc, src)
	rw.set(nw, Sink{ScanOut, 0}, Mx(m))
}

// AppendEffectiveSources appends to dst the registers (and possibly
// the scan-in port) whose scan output can feed register id, looking
// through multiplexers: the inter-register connectivity of the
// reconfigurable wiring. Sources appear in depth-first order over the
// mux inputs, each once. The walk runs on m.
func (nw *Network) AppendEffectiveSources(dst []Ref, id int, m *Marks) []Ref {
	// Slots keyed by RefIndex; the extra last slot stands for an
	// unconnected input.
	unconnected := nw.NumRefs()
	m.start(unconnected + 1)
	m.stack = append(m.stack, nw.Registers[id].In)
	for len(m.stack) > 0 {
		r := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		i := unconnected
		if r != NoRef && r.IsValid() {
			i = nw.RefIndex(r)
		}
		if !m.visit(i) {
			continue
		}
		switch r.Kind {
		case KScanIn, KRegister:
			dst = append(dst, r)
		case KMux:
			// Pushed in reverse, the inputs are visited in order, each
			// one's sources before the next input's.
			ins := nw.Muxes[r.ID].Inputs
			for j := len(ins) - 1; j >= 0; j-- {
				m.stack = append(m.stack, ins[j])
			}
		}
	}
	return dst
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
