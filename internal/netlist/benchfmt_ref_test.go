package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file keeps the original multi-pass .bench reader as a test-only
// reference. TestParseBenchMatchesReference, TestParseBenchReversedChain
// and FuzzParseBench require ParseBench to build the identical netlist
// (same node numbering) or to fail with the identical error text.

var gateByName = map[string]GateType{
	"AND": And, "OR": Or, "NAND": Nand, "NOR": Nor,
	"XOR": Xor, "XNOR": Xnor, "NOT": Not, "BUFF": Buf, "BUF": Buf,
	"MUX": Mux, "MAJ": Maj,
}

// parseBenchReference reads a .bench description into a netlist.
func parseBenchReference(r io.Reader) (*Netlist, error) {
	type rawGate struct {
		out  string
		fn   string
		ins  []string
		line int
	}
	type rawFF struct {
		out    string
		d      string
		module string
		line   int
	}
	var (
		inputs []string
		gates  []rawGate
		ffs    []rawFF
	)
	curModule := "default"
	sc := bufio.NewScanner(r)
	// Start small (the scanner grows its buffer on demand) but accept
	// lines up to 16 MiB, e.g. a gate with a very wide fan-in.
	sc.Buffer(nil, 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if strings.HasPrefix(rest, "@module") {
				m := strings.TrimSpace(strings.TrimPrefix(rest, "@module"))
				if m != "" {
					curModule = m
				}
			}
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT(") && strings.HasSuffix(line, ")"):
			inputs = append(inputs, strings.TrimSpace(line[len("INPUT("):len(line)-1]))
		case strings.HasPrefix(upper, "OUTPUT(") && strings.HasSuffix(line, ")"):
			// Outputs carry no structure in this model; accepted and
			// ignored for compatibility.
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench: line %d: expected assignment, got %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench: line %d: malformed function %q", lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			argStr := strings.TrimSpace(rhs[open+1 : len(rhs)-1])
			var ins []string
			if argStr != "" {
				for _, a := range strings.Split(argStr, ",") {
					ins = append(ins, strings.TrimSpace(a))
				}
			}
			if fn == "DFF" {
				if len(ins) != 1 {
					return nil, fmt.Errorf("bench: line %d: DFF takes one input", lineNo)
				}
				ffs = append(ffs, rawFF{out: out, d: ins[0], module: curModule, line: lineNo})
			} else {
				gates = append(gates, rawGate{out: out, fn: fn, ins: ins, line: lineNo})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	n := New()
	modIdx := map[string]int{}
	moduleOf := func(name string) int {
		if i, ok := modIdx[name]; ok {
			return i
		}
		i := n.AddModule(name)
		modIdx[name] = i
		return i
	}
	nodeOf := map[string]NodeID{}
	declare := func(name string, id NodeID, line int) error {
		if _, dup := nodeOf[name]; dup {
			return fmt.Errorf("bench: line %d: signal %q declared twice", line, name)
		}
		nodeOf[name] = id
		return nil
	}
	for _, in := range inputs {
		if err := declare(in, n.AddInput(in), 0); err != nil {
			return nil, err
		}
	}
	for _, ff := range ffs {
		id := n.AddFF(ff.out, moduleOf(ff.module))
		if err := declare(ff.out, n.FFs[id].Node, ff.line); err != nil {
			return nil, err
		}
	}
	// Gates may reference later gates; resolve iteratively. Constants
	// first (no inputs), then repeat passes until all gates placed.
	placed := make([]bool, len(gates))
	remaining := len(gates)
	for remaining > 0 {
		progress := false
		for gi := range gates {
			if placed[gi] {
				continue
			}
			g := &gates[gi]
			switch g.fn {
			case "CONST0", "CONST1":
				if err := declare(g.out, n.AddConst(g.fn == "CONST1"), g.line); err != nil {
					return nil, err
				}
				placed[gi] = true
				remaining--
				progress = true
				continue
			}
			gt, ok := gateByName[g.fn]
			if !ok {
				return nil, fmt.Errorf("bench: line %d: unknown function %q", g.line, g.fn)
			}
			ready := true
			fanin := make([]NodeID, len(g.ins))
			for i, in := range g.ins {
				id, ok := nodeOf[in]
				if !ok {
					ready = false
					break
				}
				fanin[i] = id
			}
			if !ready {
				continue
			}
			var id NodeID
			func() {
				defer func() {
					if r := recover(); r != nil {
						id = NoNode
					}
				}()
				id = n.AddGate(gt, fanin...)
			}()
			if id == NoNode {
				return nil, fmt.Errorf("bench: line %d: invalid arity for %s", g.line, g.fn)
			}
			if err := declare(g.out, id, g.line); err != nil {
				return nil, err
			}
			placed[gi] = true
			remaining--
			progress = true
		}
		if !progress {
			// Some gate references an undefined signal or a
			// combinational cycle exists.
			for gi := range gates {
				if !placed[gi] {
					return nil, fmt.Errorf("bench: line %d: unresolved signals in %q (undefined input or combinational cycle)", gates[gi].line, gates[gi].out)
				}
			}
		}
	}
	for i := range ffs {
		d, ok := nodeOf[ffs[i].d]
		if !ok {
			return nil, fmt.Errorf("bench: line %d: DFF %q references undefined signal %q", ffs[i].line, ffs[i].out, ffs[i].d)
		}
		n.SetFFInput(FFID(i), d)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return n, nil
}
