package netlist

import (
	"fmt"
	"math/rand"
)

// GenConfig parameterizes random circuit generation. The benchmarks of
// the paper are "only available without the underlying circuit", so the
// authors randomly generated 10 circuits per benchmark; Generate
// reproduces that protocol deterministically from a seed.
type GenConfig struct {
	// ModuleNames names the circuit modules (instruments). One module
	// is created per name.
	ModuleNames []string
	// PortFFs gives, per module, how many circuit flip-flops are
	// RSN-facing (capture sources / update sinks of scan flip-flops).
	PortFFs []int
	// InternalFFs is the number of internal (non-RSN-connected)
	// flip-flops per module. The dependency analysis bridges over them.
	InternalFFs int
	// InternalPerModule optionally overrides InternalFFs with an
	// explicit per-module count (parallel to ModuleNames).
	InternalPerModule []int
	// Inputs is the number of primary inputs.
	Inputs int
	// CrossEdges is the number of directed inter-module data paths.
	// Each one threads a source module's flip-flop through internal
	// flip-flops into a destination module — the raw material of
	// hybrid scan paths.
	CrossEdges int
	// ReconvergenceRate is the probability that a flip-flop's
	// next-state logic masks one of its structural supports through an
	// XOR reconvergence, producing an only-structural dependency
	// (cf. F6 and the XOR gate in the paper's Figure 5).
	ReconvergenceRate float64
	// Depth is the depth of the random gate trees feeding flip-flops.
	Depth int
	// CrossSources optionally restricts which modules may drive
	// inter-module paths (true = may source cross edges). Modules
	// holding sensitive data typically do not broadcast it into other
	// modules; their data leaves only over the scan infrastructure.
	// nil allows every module.
	CrossSources []bool
}

// Generated bundles a generated netlist with the bookkeeping the RSN
// attachment needs.
type Generated struct {
	N *Netlist
	// PortFFs lists, per module, the RSN-facing circuit flip-flops.
	PortFFs [][]FFID
	// InternalFFs lists the flip-flops not connected to the RSN.
	InternalFFs []FFID
	// CrossPaths records the generated inter-module paths as
	// (source FF, destination FF, functional) triples; functional is
	// false when the path was masked by a reconvergence.
	CrossPaths []CrossPath
}

// CrossPath describes one generated inter-module data path.
type CrossPath struct {
	Src, Dst   FFID
	Functional bool
}

// DefaultGenConfig returns a config sized for the given module count
// with sensible defaults matching the running-example flavor.
func DefaultGenConfig(moduleNames []string, portFFsPerModule int) GenConfig {
	ports := make([]int, len(moduleNames))
	for i := range ports {
		ports[i] = portFFsPerModule
	}
	return GenConfig{
		ModuleNames:       moduleNames,
		PortFFs:           ports,
		InternalFFs:       2,
		Inputs:            4,
		CrossEdges:        len(moduleNames),
		ReconvergenceRate: 0.3,
		Depth:             2,
	}
}

// Generate builds a random reconvergent sequential circuit.
func Generate(cfg GenConfig, seed int64) *Generated {
	if len(cfg.ModuleNames) == 0 {
		panic("netlist: Generate requires at least one module")
	}
	if len(cfg.PortFFs) != len(cfg.ModuleNames) {
		panic("netlist: PortFFs must parallel ModuleNames")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	rng := rand.New(rand.NewSource(seed))
	n := New()
	g := &Generated{N: n}

	inputs := make([]NodeID, cfg.Inputs)
	for i := range inputs {
		inputs[i] = n.AddInput(fmt.Sprintf("pi%d", i))
	}
	if len(inputs) == 0 {
		inputs = append(inputs, n.AddInput("pi0"))
	}

	// Create all flip-flops first so wiring can reference any of them.
	moduleFFs := make([][]FFID, len(cfg.ModuleNames))
	internalsByModule := make([][]FFID, len(cfg.ModuleNames))
	var internals []FFID
	for m, name := range cfg.ModuleNames {
		mi := n.AddModule(name)
		ports := make([]FFID, cfg.PortFFs[m])
		for i := range ports {
			ports[i] = n.AddFF(fmt.Sprintf("%s.F%d", name, i), mi)
		}
		g.PortFFs = append(g.PortFFs, ports)
		moduleFFs[m] = append([]FFID{}, ports...)
		nInternal := cfg.InternalFFs
		if m < len(cfg.InternalPerModule) {
			nInternal = cfg.InternalPerModule[m]
		}
		for i := 0; i < nInternal; i++ {
			ff := n.AddFF(fmt.Sprintf("%s.IF%d", name, i), mi)
			internals = append(internals, ff)
			internalsByModule[m] = append(internalsByModule[m], ff)
			moduleFFs[m] = append(moduleFFs[m], ff)
		}
	}
	g.InternalFFs = internals

	// randomSource picks a driver node for gate trees of module m:
	// mostly intra-module flip-flops, sometimes a primary input.
	randomSource := func(m int) NodeID {
		if rng.Float64() < 0.25 {
			return inputs[rng.Intn(len(inputs))]
		}
		ffs := moduleFFs[m]
		if len(ffs) == 0 {
			return inputs[rng.Intn(len(inputs))]
		}
		return n.FFs[ffs[rng.Intn(len(ffs))]].Node
	}

	var tree func(m, depth int) NodeID
	tree = func(m, depth int) NodeID {
		if depth == 0 {
			return randomSource(m)
		}
		var a, b NodeID
		if depth == 1 {
			a, b = randomSource(m), randomSource(m)
		} else {
			a, b = tree(m, depth-1), tree(m, depth-1)
		}
		switch rng.Intn(4) {
		case 0:
			return n.AddGate(And, a, b)
		case 1:
			return n.AddGate(Or, a, b)
		case 2:
			return n.AddGate(Xor, a, b)
		default:
			return n.AddGate(Mux, randomSource(m), a, b)
		}
	}

	// maskThrough returns a node that structurally depends on s but
	// functionally does not: XOR(s, XOR(s, carrier)) == carrier.
	maskThrough := func(s, carrier NodeID) NodeID {
		inner := n.AddGate(Xor, s, carrier)
		return n.AddGate(Xor, s, inner)
	}

	// Wire every flip-flop's next state.
	for m := range cfg.ModuleNames {
		for _, ff := range moduleFFs[m] {
			d := tree(m, cfg.Depth)
			if rng.Float64() < cfg.ReconvergenceRate {
				// Mask a random same-module signal: the FF becomes
				// structurally but not functionally dependent on it.
				s := randomSource(m)
				d = maskThrough(s, d)
			}
			n.SetFFInput(ff, d)
		}
	}

	// Inter-module paths: src port FF -> (internal FF ->)* dst port FF.
	var srcModules []int
	for m := range cfg.ModuleNames {
		if cfg.CrossSources == nil || (m < len(cfg.CrossSources) && cfg.CrossSources[m]) {
			srcModules = append(srcModules, m)
		}
	}
	for e := 0; e < cfg.CrossEdges && len(srcModules) > 0; e++ {
		srcM := srcModules[rng.Intn(len(srcModules))]
		dstM := rng.Intn(len(cfg.ModuleNames))
		if len(g.PortFFs[srcM]) == 0 || len(g.PortFFs[dstM]) == 0 {
			continue
		}
		src := g.PortFFs[srcM][rng.Intn(len(g.PortFFs[srcM]))]
		dst := g.PortFFs[dstM][rng.Intn(len(g.PortFFs[dstM]))]
		if src == dst {
			continue
		}
		functional := rng.Float64() >= cfg.ReconvergenceRate

		// Route through 0-2 internal flip-flops of the source module.
		// Hopping through other modules' internals would drag their
		// data (potentially confidential) onto this path.
		srcInternals := internalsByModule[srcM]
		carrier := n.FFs[src].Node
		hops := rng.Intn(3)
		for h := 0; h < hops && len(srcInternals) > 0; h++ {
			iff := srcInternals[rng.Intn(len(srcInternals))]
			if iff == dst || iff == src {
				continue
			}
			// Merge the carrier into the internal FF's next state so
			// the existing behaviour is extended, not replaced.
			old := n.FFs[iff].D
			n.SetFFInput(iff, n.AddGate(Or, old, carrier))
			carrier = n.FFs[iff].Node
		}
		old := n.FFs[dst].D
		var d NodeID
		if functional {
			// OR keeps a functional (1-controllable) path from carrier.
			d = n.AddGate(Or, old, carrier)
		} else {
			d = maskThrough(carrier, old)
		}
		n.SetFFInput(dst, d)
		g.CrossPaths = append(g.CrossPaths, CrossPath{Src: src, Dst: dst, Functional: functional})
	}

	if err := n.Validate(); err != nil {
		panic("netlist: generated circuit invalid: " + err.Error())
	}
	return g
}

// AddWideCone adds a flip-flop to module m whose next state is
// XOR(q, XOR(q, AND(x1..x(k-1)))) over k-1 fresh primary inputs x: a
// cone of k live leaves in which the flip-flop's own output q is only a
// structural support, masked by the reconvergence. The dependency
// analysis decides cones of up to 12 live leaves by truth table, so a
// fixture adds one such flip-flop with k > 12 to keep its exact mode's
// SAT path covered.
func AddWideCone(n *Netlist, m, k int) FFID {
	ff := n.AddFF(fmt.Sprintf("wide%d", len(n.FFs)), m)
	xs := make([]NodeID, k-1)
	for i := range xs {
		xs[i] = n.AddInput(fmt.Sprintf("wide%d.x%d", ff, i))
	}
	q := n.FFs[ff].Node
	n.SetFFInput(ff, n.AddGate(Xor, q, n.AddGate(Xor, q, n.AddGate(And, xs...))))
	return ff
}
