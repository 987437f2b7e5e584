package icl

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/secspec"
)

// sampleBench backs sample's three links and adds two flip-flops no
// link references.
const sampleBench = `INPUT(pi)
g0 = AND(pi, crypto.I0)
g1 = XOR(crypto.F0, untrusted.I1)
# @module crypto
crypto.F0 = DFF(g0)
crypto.I0 = DFF(crypto.F1)
crypto.F1 = DFF(pi)
# @module untrusted
untrusted.I1 = DFF(untrusted.F0)
untrusted.F0 = DFF(g1)
`

func ffNames(c *netlist.Netlist, ids []netlist.FFID) []string {
	var out []string
	for _, f := range ids {
		out = append(out, c.FFs[f].Name)
	}
	return out
}

func TestLoadBindsLinksAndMarksInternal(t *testing.T) {
	d, err := Load(sample, sampleBench, 1500)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Circuit
	if c.NumFFs() != 5 {
		t.Fatalf("circuit has %d flip-flops, want the bench's 5", c.NumFFs())
	}
	a := &d.Network.Registers[0]
	if got := ffNames(c, []netlist.FFID{a.Capture[0], a.Capture[1]}); strings.Join(got, ",") != "crypto.F0,crypto.F1" {
		t.Errorf("register A captures %v", got)
	}
	if got := ffNames(c, []netlist.FFID{d.Network.Registers[1].Update[2]}); got[0] != "untrusted.F0" {
		t.Errorf("register B updates %v", got)
	}
	if got := strings.Join(ffNames(c, d.Internal), ","); got != "crypto.I0,untrusted.I1" {
		t.Errorf("internal flip-flops %s, want exactly the unlinked crypto.I0,untrusted.I1", got)
	}
	if d.Spec != nil {
		t.Error("unannotated file yields a specification")
	}
}

func TestLoadSynthesizesHoldFlipFlops(t *testing.T) {
	// References out of module order, one repeated, one without a
	// module prefix.
	src := `ScanNetwork "syn" {
  Module "crypto";
  Module "untrusted";
  ScanRegister "A" { Length 3; ScanInSource SI; Module "untrusted";
    CaptureSource 0 "untrusted.U"; CaptureSource 1 "crypto.K"; UpdateSink 2 "untrusted.U"; }
  ScanRegister "B" { Length 1; ScanInSource Register "A"; CaptureSource 0 "loose"; }
  ScanOutSource Register "B";
}`
	d, err := Load(src, "", 1500)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Circuit
	want := []struct {
		name string
		mod  int
	}{{"untrusted.U", 1}, {"crypto.K", 0}, {"loose", 0}}
	if c.NumFFs() != len(want) {
		t.Fatalf("%d synthesized flip-flops, want %d", c.NumFFs(), len(want))
	}
	for i, w := range want {
		ff := &c.FFs[i]
		if ff.Name != w.name || ff.Module != w.mod || ff.D != ff.Node {
			t.Errorf("flip-flop %d = %q module %d (D %d, node %d), want hold flip-flop %q of module %d",
				i, ff.Name, ff.Module, ff.D, ff.Node, w.name, w.mod)
		}
	}
	if strings.Join(c.Modules, ",") != "crypto,untrusted" {
		t.Errorf("circuit modules %v, want the network's", c.Modules)
	}
	if len(d.Internal) != 0 {
		t.Errorf("synthesized circuit has internal flip-flops %v", d.Internal)
	}
	if a := d.Network.Registers[0]; a.Update[2] != a.Capture[0] {
		t.Error("a repeated name must bind to the same flip-flop")
	}
}

func TestLoadUnknownLinkName(t *testing.T) {
	benchText := strings.Replace(sampleBench, "crypto.F1 = DFF(pi)", "crypto.F9 = DFF(pi)", 1)
	benchText = strings.Replace(benchText, "DFF(crypto.F1)", "DFF(crypto.F9)", 1)
	if _, err := Load(sample, benchText, 1500); err == nil || !strings.Contains(err.Error(), `unknown circuit flip-flop "crypto.F1"`) {
		t.Fatalf("err = %v, want the unknown crypto.F1 link", err)
	}
}

// oversized is a small file declaring one register of the given length.
func oversized(length string) string {
	return `ScanNetwork "big" {
  Module "m" { Trust 0; Accepts 0; }
  ScanRegister "R" { Length ` + length + `; ScanInSource SI; Module "m"; }
  ScanOutSource Register "R";
}`
}

func TestLoadRefusesOversizedBeforeAllocating(t *testing.T) {
	for _, length := range []string{"4000000000000000000", "1000000000"} {
		src := oversized(length)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(src, "", 1500)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "scan FFs (cap 1500)") {
			t.Errorf("Length %s: err = %v, want the cap error", length, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("Length %s: refusing allocated %d bytes", length, grew)
		}
	}
	// Past the flip-flop ID range an uncapped caller still gets an
	// error, not a panic.
	if _, err := Load(oversized("4000000000000000000"), "", math.MaxInt32); err == nil {
		t.Error("a length past the flip-flop ID range loaded")
	}
}

func TestLoadCapCountsAllRegisters(t *testing.T) {
	// sample declares 2+3+1 = 6 scan flip-flops.
	if _, err := Load(sample, sampleBench, 6); err != nil {
		t.Fatalf("at the cap: %v", err)
	}
	_, err := Load(sample, sampleBench, 5)
	if err == nil || err.Error() != "network has 6 scan FFs (cap 5)" {
		t.Fatalf("over the cap: %v", err)
	}
}

// designHash is the canonical digest of everything Load returns.
func designHash(d *Design) string {
	h := netlist.NewHasher()
	d.Circuit.AppendCanonical(h)
	h.List(len(d.Internal))
	for _, f := range d.Internal {
		h.Int(int64(f))
	}
	d.Network.AppendCanonical(h)
	if d.Spec != nil {
		d.Spec.AppendCanonical(h)
	}
	return h.SumHex()
}

// writeDesign renders a loaded design back as ICL text and, when
// withBench is set, its circuit as .bench text. Without it, a reload
// synthesizes the circuit again.
func writeDesign(t *testing.T, d *Design, withBench bool) (string, string) {
	t.Helper()
	var iclText, benchText strings.Builder
	name := func(f netlist.FFID) string { return d.Circuit.FFs[f].Name }
	if err := WriteWithSpec(&iclText, d.Network, d.Spec, name); err != nil {
		t.Fatalf("WriteWithSpec: %v", err)
	}
	if withBench {
		if err := netlist.WriteBench(&benchText, d.Circuit); err != nil {
			t.Fatalf("WriteBench: %v", err)
		}
	}
	return iclText.String(), benchText.String()
}

// FuzzLoad feeds (ICL, .bench) pairs to Load under a 4096 scan-FF cap.
// Load must never panic, and an accepted input must survive being
// written back with WriteWithSpec (and WriteBench, when it came with a
// circuit): the written pair loads again, and writing and loading once
// more gives the same canonical hash of circuit, internal list, network
// and specification. The first written form is the fixed point, not
// the input itself: WriteBench renames gates and groups flip-flops by
// module, and the writer renumbers synthesized flip-flops in its own
// link order.
func FuzzLoad(f *testing.F) {
	f.Add(sample, "")
	f.Add(sample, sampleBench)
	f.Add(specSample, "")
	f.Add(oversized("1000000000"), "")
	for _, name := range []string{"TreeFlat", "BasicSCB"} {
		b, _ := bench.ByName(name)
		nw := b.Build(0.05)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 1)
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), 1)
		var iclText, benchText strings.Builder
		name := func(f netlist.FFID) string { return att.Circuit.FFs[f].Name }
		if err := WriteWithSpec(&iclText, nw, spec, name); err != nil {
			f.Fatal(err)
		}
		if err := netlist.WriteBench(&benchText, att.Circuit); err != nil {
			f.Fatal(err)
		}
		f.Add(iclText.String(), benchText.String())
	}
	var gen strings.Builder
	if _, err := bench.StreamScaleICL(&gen, nil, bench.ScaleGenConfig{TargetScanFFs: 64, WithSpec: true, Seed: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.String(), "")
	f.Fuzz(func(t *testing.T, src, benchText string) {
		d1, err := Load(src, benchText, 4096)
		if err != nil {
			return
		}
		icl1, bench1 := writeDesign(t, d1, benchText != "")
		if strings.Contains(icl1, `\`) {
			// WriteWithSpec quotes names with %q, but the dialect has no
			// escapes: a name %q escapes does not read back (ROADMAP).
			t.Skip("a name WriteWithSpec escapes")
		}
		d2, err := Load(icl1, bench1, 4096)
		if err != nil {
			t.Fatalf("written form does not load: %v\nicl:\n%s\nbench:\n%s", err, icl1, bench1)
		}
		icl2, bench2 := writeDesign(t, d2, benchText != "")
		d3, err := Load(icl2, bench2, 4096)
		if err != nil {
			t.Fatalf("rewritten form does not load: %v\nicl:\n%s\nbench:\n%s", err, icl2, bench2)
		}
		if designHash(d2) != designHash(d3) {
			t.Fatalf("round trip changed the design\nicl:\n%s\nbench:\n%s\nrewritten icl:\n%s\nrewritten bench:\n%s",
				icl1, bench1, icl2, bench2)
		}
	})
}
