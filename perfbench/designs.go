package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/bench"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// design is one user input, in the form a user hands it to rsnsec -icl
// or to rsnserved: an ICL network description whose module annotations
// carry the security specification, plus the .bench circuit behind the
// network's instrument links.
type design struct {
	name  string
	icl   string
	bench string
	// delta is an edit script (rsnsec.edit-script JSON) against the
	// design; only the served workload submits it.
	delta string
}

// source yields the network of the i-th design of a pool.
type source func(i int, seed int64) (*rsn.Network, error)

// catalogSource cycles through Table I networks at a fixed scale, so
// every pool holds each network the same number of times and only the
// attached circuit and the specification vary with the seed.
func catalogSource(scale float64, names ...string) source {
	return func(i int, _ int64) (*rsn.Network, error) {
		name := names[i%len(names)]
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown catalog benchmark %q", name)
		}
		return b.Build(scale), nil
	}
}

// scaleSource streams an rsngen-style SIB hierarchy of ffs scan
// flip-flops (no specification: the pool attaches its own) and parses it
// back into a network.
func scaleSource(ffs int) source {
	return func(i int, seed int64) (*rsn.Network, error) {
		var buf bytes.Buffer
		cfg := bench.ScaleGenConfig{TargetScanFFs: ffs, Seed: seed}
		if _, err := bench.StreamScaleICL(&buf, nil, cfg); err != nil {
			return nil, err
		}
		return icl.ParseNetwork(buf.String(), nil)
	}
}

// makePool builds n designs from src. Design i gets a random circuit
// attached with the default attachment parameters and a specification
// drawn the way the paper's protocol draws them (confidential
// annotations on the circuit's data-source modules); both derive from
// (seed, i) alone.
func makePool(src source, n int, seed int64, withDelta bool) ([]design, error) {
	pool := make([]design, n)
	for i := range pool {
		s := mix(seed, int64(i))
		nw, err := src(i, s)
		if err != nil {
			return nil, err
		}
		nw.Name = fmt.Sprintf("%s-%d", nw.Name, i)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), s)
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources,
			secspec.DefaultGenConfig(), mix(s, 0x73706563))
		d, err := render(nw, att.Circuit, spec)
		if err != nil {
			return nil, err
		}
		if withDelta {
			// Re-route one register's scan input to the primary scan-in:
			// a wiring-only edit the served session absorbs incrementally.
			r := 1 + int(uint64(mix(s, 0x64656c74))%uint64(len(nw.Registers)-1))
			d.delta = fmt.Sprintf(`{"script":{"ops":[{"op":"cut-reconnect","pin":"R%d","src":"SI"}]}}`, r)
		}
		pool[i] = d
	}
	return pool, nil
}

// render writes the design files of one network.
func render(nw *rsn.Network, circuit *netlist.Netlist, spec *secspec.Spec) (design, error) {
	var iclText, benchText strings.Builder
	ffName := func(f netlist.FFID) string { return circuit.FFs[f].Name }
	if err := icl.WriteWithSpec(&iclText, nw, spec, ffName); err != nil {
		return design{}, err
	}
	if err := netlist.WriteBench(&benchText, circuit); err != nil {
		return design{}, err
	}
	return design{name: nw.Name, icl: iclText.String(), bench: benchText.String()}, nil
}

// renamed returns the design under another network name: same analysis
// work, different content address, so the daemon cannot answer it from
// its result store.
func (d design) renamed(name string) design {
	d.icl = strings.Replace(d.icl, fmt.Sprintf("ScanNetwork %q", d.name), fmt.Sprintf("ScanNetwork %q", name), 1)
	d.name = name
	return d
}

// loaded is a parsed design, ready for the analysis pipeline.
type loaded struct {
	nw       *rsn.Network
	circuit  *netlist.Netlist
	internal []netlist.FFID
	spec     *secspec.Spec
}

// load parses a design the way rsnserved parses an inline submission:
// instrument links bind to the circuit's flip-flops by name, and the
// flip-flops no link references are internal (bridged by the analysis).
func load(d design) (*loaded, error) {
	circuit, err := netlist.ParseBench(strings.NewReader(d.bench))
	if err != nil {
		return nil, fmt.Errorf("%s: bench: %w", d.name, err)
	}
	byName := make(map[string]netlist.FFID, len(circuit.FFs))
	for i := range circuit.FFs {
		byName[circuit.FFs[i].Name] = netlist.FFID(i)
	}
	linked := make([]bool, len(circuit.FFs))
	lookup := func(name string) (netlist.FFID, bool) {
		id, ok := byName[name]
		if ok {
			linked[id] = true
		}
		return id, ok
	}
	nw, spec, err := icl.ParseNetworkAndSpec(d.icl, lookup)
	if err != nil {
		return nil, fmt.Errorf("%s: icl: %w", d.name, err)
	}
	if spec == nil {
		return nil, fmt.Errorf("%s: icl carries no security specification", d.name)
	}
	l := &loaded{nw: nw, circuit: circuit, spec: spec}
	for i, ok := range linked {
		if !ok {
			l.internal = append(l.internal, netlist.FFID(i))
		}
	}
	return l, nil
}

// mix derives a sub-seed from a seed and a label.
func mix(seed, label int64) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed, ":", label)
	return int64(h.Sum64() >> 1)
}
