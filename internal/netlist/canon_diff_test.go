// Differential coverage of the buffered canonical hasher on whole
// structures. It lives in the external test package because the
// structures (rsn.Network, secspec.Spec, rsn.EditScript) sit above
// netlist in the import graph.
package netlist_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// canonCase is one structure's canonical form fed to a hasher.
type canonCase struct {
	name   string
	append func(h *netlist.Hasher)
}

// canonCases returns structures whose canonical streams run past the
// hasher's buffer: catalog networks with attached circuits, an
// specification over FlexScan's many modules, an rsngen-style 1000-FF
// SIB hierarchy with an attached circuit, and a long edit script.
func canonCases(t testing.TB) []canonCase {
	var cases []canonCase
	for _, name := range []string{"TreeFlat", "BasicSCB", "FlexScan"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown catalog benchmark %q", name)
		}
		nw := b.Build(b.ScaleForTarget(200))
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 1)
		cases = append(cases,
			canonCase{name + "/netlist", att.Circuit.AppendCanonical},
			canonCase{name + "/network", nw.AppendCanonical})
		if name == "FlexScan" {
			spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), 1)
			cases = append(cases, canonCase{name + "/spec", spec.AppendCanonical})
		}
	}
	var src bytes.Buffer
	if _, err := bench.StreamScaleICL(&src, nil, bench.ScaleGenConfig{TargetScanFFs: 1000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	nw, err := icl.ParseNetwork(src.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 1)
	cases = append(cases,
		canonCase{"scale1000/netlist", att.Circuit.AppendCanonical},
		canonCase{"scale1000/network", nw.AppendCanonical})
	script := &rsn.EditScript{Base: nw.Name}
	for i := 0; i < 40; i++ {
		script.Ops = append(script.Ops,
			rsn.EditOp{Op: rsn.OpCutReconnect, Pin: fmt.Sprintf("R%d", i+1), Src: "SI"},
			rsn.EditOp{Op: rsn.OpAddRegister, Pin: "SO", Src: fmt.Sprintf("R%d", i), Name: fmt.Sprintf("added_%d", i), Len: 1 + i%5, Module: i % 4})
	}
	cases = append(cases, canonCase{"editscript", script.AppendCanonical})
	return cases
}

// TestCanonicalHashMatchesReference requires the buffered hasher and
// the unbuffered reference (attached as its mirror) to agree on every
// structure, with streams longer than the buffer.
func TestCanonicalHashMatchesReference(t *testing.T) {
	for _, c := range canonCases(t) {
		h, ref := netlist.NewMirroredHasher()
		c.append(h)
		got := h.SumHex()
		want, n := ref()
		if n <= netlist.HasherBufSize {
			t.Errorf("%s: stream of %d bytes fits the %d-byte buffer", c.name, n, netlist.HasherBufSize)
		}
		if got != want {
			t.Errorf("%s: buffered digest %s, reference %s (%d-byte stream)", c.name, got, want, n)
		}
	}
}

// digestSink keeps the benchmarked digests alive.
var digestSink string

// BenchmarkCanonicalHash times the canonical digest of each structure,
// the content-key work of a served submission.
func BenchmarkCanonicalHash(b *testing.B) {
	for _, c := range canonCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := netlist.NewHasher()
				c.append(h)
				digestSink = h.SumHex()
			}
		})
	}
}
