package icl

import (
	"strings"
	"testing"
	"unicode"

	"repro/internal/netlist"
	"repro/internal/rsn"
)

const sample = `
// running-example style network
ScanNetwork "example" {
  Module "crypto";
  Module "untrusted";
  ScanRegister "A" {
    Length 2;
    ScanInSource SI;
    Module "crypto";
    CaptureSource 0 "crypto.F0";
    CaptureSource 1 "crypto.F1";
  }
  ScanRegister "B" {
    Length 3;
    ScanInSource Register "A";
    Module "untrusted";
    UpdateSink 2 "untrusted.F0";
  }
  ScanMux "M0" {
    Input Register "A";
    Input Register "B";
  }
  ScanRegister "C" {
    Length 1;
    ScanInSource Mux "M0";
    Module "untrusted";
  }
  ScanOutSource Register "C";
}
`

func sampleLookup() (func(string) (netlist.FFID, bool), *netlist.Netlist) {
	n := netlist.New()
	c := n.AddModule("crypto")
	u := n.AddModule("untrusted")
	names := map[string]netlist.FFID{}
	for i := 0; i < 2; i++ {
		f := n.AddFF("crypto.F"+string(rune('0'+i)), c)
		n.SetFFInput(f, n.FFs[f].Node)
		names[n.FFs[f].Name] = f
	}
	f := n.AddFF("untrusted.F0", u)
	n.SetFFInput(f, n.FFs[f].Node)
	names["untrusted.F0"] = f
	return func(s string) (netlist.FFID, bool) {
		id, ok := names[s]
		return id, ok
	}, n
}

func TestParseBuildSample(t *testing.T) {
	lookup, _ := sampleLookup()
	nw, err := ParseNetwork(sample, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Name != "example" {
		t.Errorf("name = %q", nw.Name)
	}
	if len(nw.Registers) != 3 || len(nw.Muxes) != 1 || len(nw.Modules) != 2 {
		t.Fatalf("sizes: %d regs %d muxes %d modules", len(nw.Registers), len(nw.Muxes), len(nw.Modules))
	}
	if nw.Registers[0].Len != 2 || nw.Registers[1].Len != 3 || nw.Registers[2].Len != 1 {
		t.Fatal("lengths wrong")
	}
	if nw.Registers[1].In != rsn.Reg(0) {
		t.Errorf("B.In = %v", nw.Registers[1].In)
	}
	if nw.Registers[2].In != rsn.Mx(0) {
		t.Errorf("C.In = %v", nw.Registers[2].In)
	}
	if nw.OutSrc != rsn.Reg(2) {
		t.Errorf("OutSrc = %v", nw.OutSrc)
	}
	if nw.Registers[0].Capture[0] == netlist.NoFF || nw.Registers[0].Capture[1] == netlist.NoFF {
		t.Error("capture links missing")
	}
	if nw.Registers[1].Update[2] == netlist.NoFF {
		t.Error("update link missing")
	}
	if nw.Registers[0].Module != 0 || nw.Registers[1].Module != 1 {
		t.Error("module association wrong")
	}
}

func TestRoundTrip(t *testing.T) {
	lookup, n := sampleLookup()
	nw, err := ParseNetwork(sample, lookup)
	if err != nil {
		t.Fatal(err)
	}
	text := String(nw, func(f netlist.FFID) string { return n.FFs[f].Name })
	nw2, err := ParseNetwork(text, lookup)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(nw2.Registers) != len(nw.Registers) || len(nw2.Muxes) != len(nw.Muxes) {
		t.Fatal("round trip changed element counts")
	}
	for i := range nw.Registers {
		a, b := nw.Registers[i], nw2.Registers[i]
		if a.Name != b.Name || a.Len != b.Len || a.In != b.In || a.Module != b.Module {
			t.Fatalf("register %d differs after round trip", i)
		}
		for bit := range a.Capture {
			if a.Capture[bit] != b.Capture[bit] || a.Update[bit] != b.Update[bit] {
				t.Fatalf("register %d links differ after round trip", i)
			}
		}
	}
	for i := range nw.Muxes {
		if len(nw.Muxes[i].Inputs) != len(nw2.Muxes[i].Inputs) {
			t.Fatalf("mux %d differs", i)
		}
		for j := range nw.Muxes[i].Inputs {
			if nw.Muxes[i].Inputs[j] != nw2.Muxes[i].Inputs[j] {
				t.Fatalf("mux %d input %d differs", i, j)
			}
		}
	}
	if nw2.OutSrc != nw.OutSrc {
		t.Fatal("scan-out differs")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no scanout", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; } }`},
		{"unknown ref", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource Register "Z"; } ScanOutSource Register "A"; }`},
		{"zero length", `ScanNetwork "x" { ScanRegister "A" { Length 0; ScanInSource SI; } ScanOutSource Register "A"; }`},
		{"missing length", `ScanNetwork "x" { ScanRegister "A" { ScanInSource SI; } ScanOutSource Register "A"; }`},
		{"missing in", `ScanNetwork "x" { ScanRegister "A" { Length 1; } ScanOutSource Register "A"; }`},
		{"dup register", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; } ScanRegister "A" { Length 1; ScanInSource SI; } ScanOutSource Register "A"; }`},
		{"dup scanout", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; } ScanOutSource Register "A"; ScanOutSource Register "A"; }`},
		{"unknown module", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; Module "nope"; } ScanOutSource Register "A"; }`},
		{"bit range", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; CaptureSource 3 "f"; } ScanOutSource Register "A"; }`},
		{"empty mux", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; } ScanMux "M" { } ScanOutSource Register "A"; }`},
		{"unterminated string", `ScanNetwork "x { }`},
		{"garbage", `ScanNetwork "x" { % }`},
		{"cycle", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource Register "B"; } ScanRegister "B" { Length 1; ScanInSource Register "A"; } ScanOutSource Register "B"; }`},
		{"capture without binding", `ScanNetwork "x" { ScanRegister "A" { Length 1; ScanInSource SI; CaptureSource 0 "f"; } ScanOutSource Register "A"; }`},
	}
	for _, c := range cases {
		if _, err := ParseNetwork(c.src, nil); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
// header comment
ScanNetwork "c" { // trailing
  ScanRegister "A" { Length 1; ScanInSource SI; } // inline
  ScanOutSource Register "A";
}`
	nw, err := ParseNetwork(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Registers) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestImplicitDefaultModule(t *testing.T) {
	src := `ScanNetwork "d" { ScanRegister "A" { Length 2; ScanInSource SI; } ScanOutSource Register "A"; }`
	nw, err := ParseNetwork(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Modules) != 1 || nw.Modules[0] != "default" {
		t.Fatalf("Modules = %v", nw.Modules)
	}
}

func TestWriteWithoutFFNameOnLinkedNetwork(t *testing.T) {
	lookup, _ := sampleLookup()
	nw, err := ParseNetwork(sample, lookup)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, nw, nil); err == nil {
		t.Fatal("expected error writing capture links without ffName")
	}
}

func TestIdentifiersWithDots(t *testing.T) {
	// FF names like "crypto.F0" appear in strings; identifiers with dots
	// appear in none of the keywords but must lex without error.
	lookup, _ := sampleLookup()
	if _, err := ParseNetwork(sample, lookup); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsIncludeLineNumbers(t *testing.T) {
	src := "ScanNetwork \"x\" {\n  ScanRegister \"A\" {\n    Length 0;\n    ScanInSource SI;\n  }\n  ScanOutSource Register \"A\";\n}"
	_, err := ParseNetwork(src, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

const specSample = `
ScanNetwork "annotated" {
  Categories 4;
  Module "crypto" { Trust 3; Accepts 2, 3; }
  Module "untrusted" { Trust 0; Accepts 0, 1, 2, 3; }
  Module "plain";
  ScanRegister "A" { Length 2; ScanInSource SI; Module "crypto"; }
  ScanRegister "B" { Length 1; ScanInSource Register "A"; Module "untrusted"; }
  ScanRegister "C" { Length 1; ScanInSource Register "B"; Module "plain"; }
  ScanOutSource Register "C";
}
`

func TestParseSpecAnnotations(t *testing.T) {
	nw, spec, err := ParseNetworkAndSpec(specSample, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil {
		t.Fatal("spec missing")
	}
	if spec.NumCategories != 4 || spec.NumModules() != 3 {
		t.Fatalf("spec shape: %d cats %d modules", spec.NumCategories, spec.NumModules())
	}
	if spec.Trust[0] != 3 || spec.Trust[1] != 0 {
		t.Fatalf("trust: %v", spec.Trust)
	}
	if !spec.Violates(0, 1) {
		t.Fatal("crypto->untrusted must violate")
	}
	if spec.Violates(0, 2) {
		// Module "plain" is unannotated: trust 0... it defaults to
		// trust 0 and accepts-all, and crypto does not accept trust 0.
		// This is the expected conservative default.
		t.Log("crypto->plain violates under default trust 0 (conservative)")
	}
	if len(nw.Registers) != 3 {
		t.Fatal("network lost registers")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	nw, spec, err := ParseNetworkAndSpec(specSample, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteWithSpec(&sb, nw, spec, nil); err != nil {
		t.Fatal(err)
	}
	nw2, spec2, err := ParseNetworkAndSpec(sb.String(), nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if nw2.Stats() != nw.Stats() {
		t.Fatal("network changed in round trip")
	}
	if spec2 == nil || spec2.NumCategories != spec.NumCategories {
		t.Fatal("spec lost in round trip")
	}
	for m := range spec.Trust {
		if spec.Trust[m] != spec2.Trust[m] || spec.Accepts[m] != spec2.Accepts[m] {
			t.Fatalf("module %d spec differs: %v/%v vs %v/%v", m,
				spec.Trust[m], spec.Accepts[m], spec2.Trust[m], spec2.Accepts[m])
		}
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"category out of range", `ScanNetwork "x" { Categories 2; Module "m" { Trust 5; } ScanRegister "A" { Length 1; ScanInSource SI; Module "m"; } ScanOutSource Register "A"; }`},
		{"bad categories", `ScanNetwork "x" { Categories 0; ScanRegister "A" { Length 1; ScanInSource SI; } ScanOutSource Register "A"; }`},
		{"bad attr", `ScanNetwork "x" { Module "m" { Frob 1; } ScanRegister "A" { Length 1; ScanInSource SI; Module "m"; } ScanOutSource Register "A"; }`},
	}
	for _, c := range cases {
		if _, _, err := ParseNetworkAndSpec(c.src, nil); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNoSpecReturnsNil(t *testing.T) {
	_, spec, err := ParseNetworkAndSpec(sample, sampleLookupFunc(t))
	if err != nil {
		t.Fatal(err)
	}
	if spec != nil {
		t.Fatal("unannotated file must yield nil spec")
	}
}

func sampleLookupFunc(t *testing.T) func(string) (netlist.FFID, bool) {
	t.Helper()
	l, _ := sampleLookup()
	return l
}

// TestIdentClassesMatchUnicode pins the identifier byte classes to the
// Unicode definitions: letters and '_' start an identifier, which may
// continue with letters, digits, '_' and '.'. Bytes >= 0x80 count as
// the Latin-1 rune of the same value.
func TestIdentClassesMatchUnicode(t *testing.T) {
	for i := 0; i < 256; i++ {
		c, r := byte(i), rune(i)
		start := r == '_' || unicode.IsLetter(r)
		part := start || r == '.' || unicode.IsDigit(r)
		if isIdentStart(c) != start || isIdentPart(c) != part {
			t.Errorf("byte %#x: start=%v part=%v, want %v %v", c, isIdentStart(c), isIdentPart(c), start, part)
		}
	}
}

// TestWriteNamesVerbatim checks that names are written as they are
// between quotes, backslashes and non-ASCII runes included, and read
// back unchanged, and that a name holding a quote or a newline, which
// the dialect cannot write, is refused at each place a name is written.
func TestWriteNamesVerbatim(t *testing.T) {
	build := func(names map[string]string) *rsn.Network {
		name := func(key string) string {
			if s, ok := names[key]; ok {
				return s
			}
			return key
		}
		nw := rsn.New(name("net"))
		m := nw.AddModule(name("mod"))
		a := nw.AddRegister(name("A"), 2, m)
		b := nw.AddRegister(name("B"), 1, m)
		nw.Connect(a, rsn.ScanIn)
		nw.Connect(b, rsn.Mx(nw.AddMux(name("M"), rsn.Reg(a), rsn.ScanIn)))
		nw.ConnectOut(rsn.Reg(b))
		nw.SetCapture(a, 0, 0)
		nw.SetUpdate(a, 1, 1)
		return nw
	}
	ffs := []string{"ff0", "ff1"}
	ffName := func(f netlist.FFID) string { return ffs[f] }
	odd := map[string]string{"net": `n\et`, "mod": `m\\od`, "A": `R\0ä`, "B": "B\tx", "M": `M\`}
	var sb strings.Builder
	if err := Write(&sb, build(odd), ffName); err != nil {
		t.Fatal(err)
	}
	for key, s := range odd {
		if !strings.Contains(sb.String(), `"`+s+`"`) {
			t.Fatalf("%s: name %q not written verbatim:\n%s", key, s, sb.String())
		}
	}
	lookup := func(s string) (netlist.FFID, bool) {
		for i, n := range ffs {
			if n == s {
				return netlist.FFID(i), true
			}
		}
		return 0, false
	}
	nw, err := ParseNetwork(sb.String(), lookup)
	if err != nil {
		t.Fatalf("written form does not parse: %v\n%s", err, sb.String())
	}
	if nw.Name != odd["net"] || nw.Modules[0] != odd["mod"] || nw.Registers[0].Name != odd["A"] ||
		nw.Registers[1].Name != odd["B"] || nw.Muxes[0].Name != odd["M"] {
		t.Fatalf("names changed in the round trip: %q %q %q %q %q", nw.Name, nw.Modules[0], nw.Registers[0].Name, nw.Registers[1].Name, nw.Muxes[0].Name)
	}
	for _, key := range []string{"net", "mod", "A", "B", "M", "ff0", "ff1"} {
		for _, bad := range []string{`a"b`, "a\nb"} {
			names := map[string]string{key: bad}
			ffs = []string{"ff0", "ff1"}
			if f, ok := map[string]int{"ff0": 0, "ff1": 1}[key]; ok {
				ffs[f] = bad
			}
			var sb strings.Builder
			err := Write(&sb, build(names), ffName)
			if err == nil || !strings.Contains(err.Error(), "quote or a newline") {
				t.Fatalf("%s named %q: err = %v", key, bad, err)
			}
			if sb.Len() != 0 {
				t.Fatalf("%s named %q: wrote %d bytes before refusing", key, bad, sb.Len())
			}
		}
	}
}
