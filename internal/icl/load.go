package icl

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Design is one loaded network description: the scan network, the
// security specification its module annotations embed, the circuit its
// instrument links bind to, and that circuit's internal flip-flops.
type Design struct {
	Network *rsn.Network
	// Spec is nil when no module carries Trust/Accepts annotations.
	Spec    *secspec.Spec
	Circuit *netlist.Netlist
	// Internal lists the circuit flip-flops no capture or update link
	// references; the dependency analysis bridges over them (Section
	// III-B). It is empty for a synthesized circuit.
	Internal []netlist.FFID
}

// Load reads an ICL description and, when benchText is non-empty, the
// .bench circuit backing its instrument links. It is the one place
// links are bound to a circuit:
//
//   - with a circuit, links bind by flip-flop name, an unknown (or
//     empty) name is an error, and every flip-flop no link references
//     is internal;
//   - without one, each referenced non-empty name becomes a hold
//     flip-flop of the module its "module." prefix names (the first
//     module otherwise), numbered in first-reference order, so
//     link-carrying files load standalone.
//
// The declared register lengths are summed before any per-flip-flop
// allocation, and a network with more than maxScanFFs scan flip-flops
// is refused. Load is deterministic in (src, benchText): a persisted
// session re-loads its recorded sources into the exact flip-flop
// numbering its snapshot is indexed by.
func Load(src, benchText string, maxScanFFs int) (*Design, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := checkScanFFs(f, maxScanFFs); err != nil {
		return nil, err
	}
	d := &Design{}
	var lookup func(string) (netlist.FFID, bool)
	var linked []bool
	var held []string // synthesized hold flip-flops, in first-reference order
	if benchText != "" {
		c, err := netlist.ParseBench(strings.NewReader(benchText))
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		d.Circuit = c
		byName := make(map[string]netlist.FFID, len(c.FFs))
		for i := range c.FFs {
			byName[c.FFs[i].Name] = netlist.FFID(i)
		}
		linked = make([]bool, len(c.FFs))
		lookup = func(name string) (netlist.FFID, bool) {
			id, ok := byName[name]
			if ok = ok && name != ""; ok {
				linked[id] = true
			}
			return id, ok
		}
	} else {
		byName := map[string]netlist.FFID{}
		lookup = func(name string) (netlist.FFID, bool) {
			id, ok := byName[name]
			if !ok && name != "" {
				id, ok = netlist.FFID(len(held)), true
				byName[name] = id
				held = append(held, name)
			}
			return id, ok
		}
	}
	if d.Network, d.Spec, err = buildWithSpec(f, lookup); err != nil {
		return nil, err
	}
	if d.Circuit != nil {
		for i, l := range linked {
			if !l {
				d.Internal = append(d.Internal, netlist.FFID(i))
			}
		}
		return d, nil
	}
	// The synthesized circuit needs the network's module table, which
	// Build completes (an implicit "default" module).
	c := netlist.New()
	for _, name := range d.Network.Modules {
		c.AddModule(name)
	}
	for _, name := range held {
		mod := 0
		for mi, mn := range d.Network.Modules {
			if strings.HasPrefix(name, mn+".") {
				mod = mi
				break
			}
		}
		ff := c.AddFF(name, mod)
		c.SetFFInput(ff, c.FFs[ff].Node)
	}
	d.Circuit = c
	return d, nil
}

// checkScanFFs sums the declared register lengths, stopping at the
// first register that takes the sum past limit, so an oversized
// description is refused before Build allocates its flip-flops. The
// count it reports runs up to that register; it saturates rather than
// overflow.
func checkScanFFs(f *File, limit int) error {
	sum := 0
	for _, r := range f.Registers {
		if r.Length > limit-sum {
			n := math.MaxInt
			if r.Length <= math.MaxInt-sum {
				n = sum + r.Length
			}
			return fmt.Errorf("network has %d scan FFs (cap %d)", n, limit)
		}
		sum += r.Length
	}
	return nil
}
