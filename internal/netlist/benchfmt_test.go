package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

var benchErrorCases = []struct{ name, src string }{
	{"garbage", "hello world\n"},
	{"bad function", "g = FROB(a)\n"},
	{"dff arity", "f = DFF(a, b)\n"},
	{"undefined", "INPUT(a)\ng = AND(a, nope)\nf = DFF(g)\n"},
	{"duplicate", "INPUT(a)\nINPUT(a)\n"},
	{"comb cycle", "a = AND(b, b)\nb = AND(a, a)\nf = DFF(a)\n"},
	{"not arity", "INPUT(a)\ng = NOT(a, a)\nf = DFF(g)\n"},
	{"malformed rhs", "g = AND a, b\n"},
}

func TestParseBenchErrors(t *testing.T) {
	for _, c := range benchErrorCases {
		if _, err := ParseBench(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

const (
	benchConstants   = "c0 = CONST0()\nc1 = CONST1()\ng = OR(c0, c1)\nf = DFF(g)\n"
	benchForwardRefs = "INPUT(a)\ng = AND(a, h)\nh = NOT(a)\nf = DFF(g)\n"
)

func TestParseBenchConstants(t *testing.T) {
	n, err := ParseBench(strings.NewReader(benchConstants))
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
	n, err := ParseBench(strings.NewReader(benchForwardRefs))
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

// TestParseBenchLineCap checks the 16 MiB line cap at its boundary, with
// and without a final newline: a line one byte short of the cap parses
// and one at the cap fails with bufio.ErrTooLong, as in the reference.
func TestParseBenchLineCap(t *testing.T) {
	for _, length := range []int{benchMaxLine - 1, benchMaxLine} {
		comment := "#" + strings.Repeat("x", length-1)
		for _, src := range []string{"INPUT(a)\n" + comment + "\nf = DFF(a)\n", "INPUT(a)\nf = DFF(a)\n" + comment} {
			checkSameParse(t, src)
			_, err := ParseBench(strings.NewReader(src))
			if tooLong := errors.Is(err, bufio.ErrTooLong); tooLong != (length >= benchMaxLine) {
				t.Fatalf("line of %d bytes: err = %v", length, err)
			}
		}
	}
}

// genBenchText renders a generated circuit with a few constants, an
// output and a comment mixed in.
func genBenchText(t testing.TB, modules, internalFFs int, seed int64) string {
	names := make([]string, modules)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	cfg := DefaultGenConfig(names, 6)
	cfg.InternalFFs = internalFFs
	cfg.CrossEdges = modules * 5 / 2
	g := Generate(cfg, seed)
	var sb strings.Builder
	sb.WriteString("# generated\nk_c0 = CONST0()\nk_c1 = CONST1(ignored)\nk_or = OR(k_c0, k_c1)\n")
	if err := WriteBench(&sb, g.N); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "OUTPUT(%s)\n", g.N.FFs[0].Name)
	return sb.String()
}

// catalogBenchText is a generated circuit about the size of the catalog
// workload's (~1.3k nodes, ~34 KB).
func catalogBenchText(t testing.TB) string { return genBenchText(t, 12, 16, 1) }

// reversedChain lists a chain of gates output-first, so placement needs
// one pass over the gates per gate.
func reversedChain(gates int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "f = DFF(g%d)\n", gates-1)
	for i := gates - 1; i > 0; i-- {
		if i%2 == 0 {
			fmt.Fprintf(&sb, "g%d = AND(g%d, a)\n", i, i-1)
		} else {
			fmt.Fprintf(&sb, "g%d = NOT(g%d)\n", i, i-1)
		}
	}
	sb.WriteString("g0 = NOT(a)\nINPUT(a)\n")
	return sb.String()
}

// checkSameParse requires ParseBench to build exactly the netlist the
// reference parser builds (node numbering included), or to fail with
// the identical error.
func checkSameParse(t testing.TB, src string) {
	t.Helper()
	got, err := ParseBench(strings.NewReader(src))
	want, werr := parseBenchReference(strings.NewReader(src))
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("error %v, reference %v\ninput (%d bytes): %.300q", err, werr, len(src), src)
	}
	if err != nil {
		return
	}
	if d := netlistDiff(got, want); d != "" {
		t.Fatalf("netlist differs from reference: %s\ninput (%d bytes): %.300q", d, len(src), src)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("parsed netlist invalid: %v", err)
	}
}

// netlistDiff describes the first difference between two netlists,
// including nil against empty slices, or returns "".
func netlistDiff(a, b *Netlist) string {
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Sprintf("%d nodes, want %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if !reflect.DeepEqual(a.Nodes[i], b.Nodes[i]) {
			return fmt.Sprintf("node %d = %+v, want %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"Nodes", a.Nodes, b.Nodes},
		{"FFs", a.FFs, b.FFs},
		{"Inputs", a.Inputs, b.Inputs},
		{"Modules", a.Modules, b.Modules},
		{"ffOfNode", a.ffOfNode, b.ffOfNode},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.a, f.b)
		}
	}
	return ""
}

// lowerKeywords rewrites INPUT/OUTPUT and function names in mixed case.
func lowerKeywords(src string, rng *rand.Rand) string {
	mix := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			if 'A' <= c && c <= 'Z' && rng.Intn(3) > 0 {
				b[i] = c + 'a' - 'A'
			}
		}
		return string(b)
	}
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		open := strings.IndexByte(l, '(')
		if open < 0 || strings.HasPrefix(l, "#") {
			continue
		}
		from := strings.IndexByte(l, '=') + 1 // 0 for INPUT/OUTPUT
		lines[i] = l[:from] + mix(l[from:open]) + l[open:]
	}
	return strings.Join(lines, "\n")
}

// mutateBytes overwrites a few bytes with structurally interesting ones.
func mutateBytes(src string, rng *rand.Rand) string {
	const alphabet = "()=,#\n \tAaXx01\xc4\xb1\xff"
	b := []byte(src)
	for k := rng.Intn(4) + 1; k > 0; k-- {
		b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func TestParseBenchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 40; iter++ {
		src := genBenchText(t, 2+rng.Intn(5), 1+rng.Intn(6), rng.Int63())
		lines := strings.Split(src, "\n")
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		shuffled := strings.Join(lines, "\n")
		for _, v := range []struct{ name, src string }{
			{"in order", src},
			{"shuffled", shuffled},
			{"lower-cased keywords", lowerKeywords(shuffled, rng)},
			{"mutated", mutateBytes(src, rng)},
			{"mutated shuffled", mutateBytes(shuffled, rng)},
		} {
			t.Run(fmt.Sprintf("%d/%s", iter, v.name), func(t *testing.T) { checkSameParse(t, v.src) })
		}
	}
}

// TestParseBenchReversedChain checks that placement stays linear in the
// number of gates when every gate is listed before its fan-in.
func TestParseBenchReversedChain(t *testing.T) {
	checkSameParse(t, reversedChain(2000))

	const gates = 200000
	n, err := ParseBench(strings.NewReader(reversedChain(gates)))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.NumGates(); got != gates {
		t.Fatalf("%d gates, want %d", got, gates)
	}
	// Input a is node 0, the flip-flop node 1, then the chain in order.
	for i := 2; i < len(n.Nodes); i++ {
		if prev := NodeID(i - 1); i > 2 && n.Nodes[i].Fanin[0] != prev {
			t.Fatalf("node %d fan-in %v, want %d first", i, n.Nodes[i].Fanin, prev)
		}
	}
	if d := n.FFs[0].D; d != NodeID(len(n.Nodes)-1) {
		t.Fatalf("flip-flop D = %d, want the chain's end %d", d, len(n.Nodes)-1)
	}
}

func FuzzParseBench(f *testing.F) {
	f.Add(benchSample)
	for _, c := range benchErrorCases {
		f.Add(c.src)
	}
	for _, s := range []string{
		benchConstants,
		benchForwardRefs,
		"ınput(a)\nf = DFF(a)\n",
		"INPUT(a)\nINPUT()\ng = AND(a,,)\nf = DFF(g)\n",
		"INPUT(a)\ng = BUF(a,a)\nf = DFF(g)\n",
		"INPUT(a)\n# @module m1\nf1 = DFF(a)\n# @module m2\n#@module\n# @module m1\nf2 = DFF(f1)\n# @module m2\nf3 = DFF(f2)\n",
		reversedChain(5),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { checkSameParse(t, src) })
}

func BenchmarkParseBench(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"catalog", catalogBenchText(b)},
		{"reversed4k", reversedChain(4000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseBench(strings.NewReader(c.src)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
