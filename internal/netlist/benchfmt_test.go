package netlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const benchSample = `
# toy circuit
INPUT(pi0)
OUTPUT(g2)
# @module crypto
f1 = DFF(d1)
# @module plain
f2 = DFF(g2)
d1 = XOR(f1, pi0)
g2 = AND(f1, f2)
`

func TestParseBenchSample(t *testing.T) {
	n, err := ParseBench(strings.NewReader(benchSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Inputs) != 1 || n.NumFFs() != 2 || n.NumGates() != 2 {
		t.Fatalf("sizes: in=%d ff=%d gates=%d", len(n.Inputs), n.NumFFs(), n.NumGates())
	}
	if len(n.Modules) != 2 || n.Modules[0] != "crypto" || n.Modules[1] != "plain" {
		t.Fatalf("modules: %v", n.Modules)
	}
	if n.FFs[0].Module != 0 || n.FFs[1].Module != 1 {
		t.Fatal("module assignment wrong")
	}
	// d1 = XOR(f1, pi0): check behaviour.
	sim := NewSimulator(n)
	sim.SetFF(0, true)
	sim.SetInput(0, true)
	sim.Step()
	if sim.FFValue(0) {
		t.Fatal("f1' = 1 xor 1 must be 0")
	}
}

func TestBenchRoundTripToy(t *testing.T) {
	n1, err := ParseBench(strings.NewReader(benchSample))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, n1); err != nil {
		t.Fatal(err)
	}
	n2, err := ParseBench(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if n2.NumFFs() != n1.NumFFs() || n2.NumGates() != n1.NumGates() || len(n2.Inputs) != len(n1.Inputs) {
		t.Fatal("round trip changed sizes")
	}
}

// TestBenchRoundTripBehaviour verifies functional equivalence of a
// generated circuit across a write/parse round trip by co-simulation.
func TestBenchRoundTripBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 10; iter++ {
		g := Generate(DefaultGenConfig([]string{"a", "b"}, 4), rng.Int63())
		n1 := g.N
		var sb strings.Builder
		if err := WriteBench(&sb, n1); err != nil {
			t.Fatal(err)
		}
		n2, err := ParseBench(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if n2.NumFFs() != n1.NumFFs() {
			t.Fatal("FF count differs")
		}
		// Map FFs by name (order may differ due to module grouping).
		byName := map[string]FFID{}
		for i := range n2.FFs {
			byName[n2.FFs[i].Name] = FFID(i)
		}
		s1 := NewSimulator(n1)
		s2 := NewSimulator(n2)
		for step := 0; step < 30; step++ {
			for i := range n1.Inputs {
				v := rng.Intn(2) == 1
				s1.SetInput(i, v)
				s2.SetInput(i, v)
			}
			s1.Step()
			s2.Step()
			for i := range n1.FFs {
				j, ok := byName[n1.FFs[i].Name]
				if !ok {
					t.Fatalf("FF %q lost in round trip", n1.FFs[i].Name)
				}
				if s1.FFValue(FFID(i)) != s2.FFValue(j) {
					t.Fatalf("iter %d step %d: FF %q diverged", iter, step, n1.FFs[i].Name)
				}
			}
		}
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"garbage", "hello world\n"},
		{"bad function", "g = FROB(a)\n"},
		{"dff arity", "f = DFF(a, b)\n"},
		{"undefined", "INPUT(a)\ng = AND(a, nope)\nf = DFF(g)\n"},
		{"duplicate", "INPUT(a)\nINPUT(a)\n"},
		{"comb cycle", "a = AND(b, b)\nb = AND(a, a)\nf = DFF(a)\n"},
		{"not arity", "INPUT(a)\ng = NOT(a, a)\nf = DFF(g)\n"},
		{"malformed rhs", "g = AND a, b\n"},
	}
	for _, c := range cases {
		if _, err := ParseBench(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseBenchConstants(t *testing.T) {
	src := "c0 = CONST0()\nc1 = CONST1()\ng = OR(c0, c1)\nf = DFF(g)\n"
	n, err := ParseBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(n)
	sim.Step()
	if !sim.FFValue(0) {
		t.Fatal("OR(0,1) must be 1")
	}
}

func TestParseBenchForwardReferences(t *testing.T) {
	// g references h which is declared later.
	src := "INPUT(a)\ng = AND(a, h)\nh = NOT(a)\nf = DFF(g)\n"
	n, err := ParseBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// f' = a AND NOT a == 0 always.
	sim := NewSimulator(n)
	for _, v := range []bool{false, true} {
		sim.SetInput(0, v)
		sim.Step()
		if sim.FFValue(0) {
			t.Fatal("contradiction gate must be 0")
		}
	}
}

func TestWriteBenchUnwiredFF(t *testing.T) {
	n := New()
	m := n.AddModule("m")
	n.AddFF("f", m)
	var sb strings.Builder
	if err := WriteBench(&sb, n); err == nil {
		t.Fatal("expected error for unwired FF")
	}
}

func TestParseBenchOutputIgnored(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(f)\nf = DFF(a)\n"
	if _, err := ParseBench(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
}

// TestParseBenchLongLine checks that a line longer than bufio's default
// 64 KiB token limit still parses: the scanner starts with a small
// buffer and grows it up to the 16 MiB line cap.
func TestParseBenchLongLine(t *testing.T) {
	const width = 12000
	var sb strings.Builder
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("in%d", i)
		fmt.Fprintf(&sb, "INPUT(%s)\n", names[i])
	}
	gate := "g = XOR(" + strings.Join(names, ", ") + ")"
	if len(gate) <= 64<<10 {
		t.Fatalf("gate line is only %d bytes; the test needs > 64 KiB", len(gate))
	}
	sb.WriteString(gate + "\nf = DFF(g)\n")
	n, err := ParseBench(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Nodes[n.FFs[0].D].Fanin); got != width {
		t.Fatalf("gate fan-in = %d, want %d", got, width)
	}
}
