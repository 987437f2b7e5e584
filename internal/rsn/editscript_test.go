package rsn

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseRef(t *testing.T) {
	good := map[string]Ref{
		"SI": ScanIn, "si": ScanIn,
		"SO": ScanOut, "so": ScanOut,
		"R0": Reg(0), "r12": Reg(12),
		"M3": Mx(3), "m0": Mx(0),
		"R2147483647": Reg(2147483647),
	}
	for s, want := range good {
		got, err := ParseRef(s)
		if err != nil || got != want {
			t.Errorf("ParseRef(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "R", "M", "R-1", "Rx", "X3", "SI0", "3", "reg0", "R2147483648", "M4294967296"} {
		if _, err := ParseRef(s); err == nil {
			t.Errorf("ParseRef(%q) succeeded, want error", s)
		}
	}
}

func TestEditScriptCanonicalNormalizes(t *testing.T) {
	s := &EditScript{Ops: []EditOp{
		{Op: " Cut-Reconnect ", Pin: "r2", Src: "si",
			// add-register fields on another op must be cleared.
			Name: "junk", Len: 9, Module: 3},
	}}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	op := c.Ops[0]
	if op.Op != OpCutReconnect || op.Pin != "R2" || op.Src != "SI" {
		t.Fatalf("normalized op = %+v", op)
	}
	if op.Name != "" || op.Len != 0 || op.Module != 0 {
		t.Fatalf("add-register fields not cleared: %+v", op)
	}
	// Canonical must not mutate the receiver.
	if s.Ops[0].Pin != "r2" {
		t.Fatal("Canonical mutated its receiver")
	}
}

func TestEditScriptCanonicalRejects(t *testing.T) {
	cases := map[string]*EditScript{
		"unknown op":       {Ops: []EditOp{{Op: "swap", Pin: "R0", Src: "SI"}}},
		"bad pin":          {Ops: []EditOp{{Op: OpConnect, Pin: "Q1", Src: "SI"}}},
		"bad src":          {Ops: []EditOp{{Op: OpConnect, Pin: "R0", Src: "??"}}},
		"src scan-out":     {Ops: []EditOp{{Op: OpConnect, Pin: "R0", Src: "SO"}}},
		"pin scan-in":      {Ops: []EditOp{{Op: OpConnect, Pin: "SI", Src: "R0"}}},
		"reg pin_idx":      {Ops: []EditOp{{Op: OpConnect, Pin: "R0", PinIdx: 1, Src: "SI"}}},
		"neg mux pin_idx":  {Ops: []EditOp{{Op: OpConnect, Pin: "M0", PinIdx: -1, Src: "SI"}}},
		"add without name": {Ops: []EditOp{{Op: OpAddRegister, Pin: "R0", Src: "SI", Len: 1}}},
		"add zero length":  {Ops: []EditOp{{Op: OpAddRegister, Pin: "R0", Src: "SI", Name: "x"}}},
		"add neg module":   {Ops: []EditOp{{Op: OpAddRegister, Pin: "R0", Src: "SI", Name: "x", Len: 1, Module: -1}}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
}

func TestEditScriptApplyCutReconnect(t *testing.T) {
	base := buildDiamond()
	s := &EditScript{Base: "diamond", Ops: []EditOp{
		{Op: OpCutReconnect, Pin: "R2", Src: "R0"}, // C: mux -> A directly
	}}
	nw, err := s.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Validate(); err != nil {
		t.Fatalf("derived network invalid: %v", err)
	}
	if got := nw.Registers[2].In; got != Reg(0) {
		t.Fatalf("C.In = %v, want R0", got)
	}
	// base must be untouched.
	if base.Registers[2].In != Mx(0) {
		t.Fatal("Apply mutated the base network")
	}
	// Base-name mismatch must be rejected.
	s2 := &EditScript{Base: "other", Ops: s.Ops}
	if _, err := s2.Apply(base); err == nil {
		t.Fatal("base mismatch not rejected")
	}
}

func TestEditScriptApplyOrdered(t *testing.T) {
	// Ops see the network state left by their predecessors: the register
	// added by op 0 is a legal source for op 1.
	base := buildDiamond()
	s := &EditScript{Ops: []EditOp{
		{Op: OpAddRegister, Pin: "R2", Src: "R0", Name: "N", Len: 2, Module: 0},
		{Op: OpCutReconnect, Pin: "R1", Src: "R3"},
	}}
	nw, err := s.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Registers) != 4 || nw.Registers[3].Name != "N" {
		t.Fatalf("added register missing: %d registers", len(nw.Registers))
	}
	if nw.Registers[1].In != Reg(3) {
		t.Fatalf("B.In = %v, want R3", nw.Registers[1].In)
	}
	// Reversed, op 1's source R3 does not exist yet.
	rev := &EditScript{Ops: []EditOp{s.Ops[1], s.Ops[0]}}
	if _, err := rev.Apply(base); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("reversed script error = %v, want out-of-range", err)
	}
}

func TestEditScriptApplyRangeErrors(t *testing.T) {
	base := buildDiamond() // 3 registers, 1 mux
	cases := map[string]*EditScript{
		"pin register": {Ops: []EditOp{{Op: OpConnect, Pin: "R9", Src: "SI"}}},
		"pin mux":      {Ops: []EditOp{{Op: OpConnect, Pin: "M4", Src: "SI"}}},
		"src register": {Ops: []EditOp{{Op: OpConnect, Pin: "R0", Src: "R7"}}},
		"mux input":    {Ops: []EditOp{{Op: OpConnect, Pin: "M0", PinIdx: 5, Src: "SI"}}},
		"add module":   {Ops: []EditOp{{Op: OpAddRegister, Pin: "R0", Src: "SI", Name: "x", Len: 1, Module: 9}}},
	}
	for name, s := range cases {
		if _, err := s.Apply(base); err == nil {
			t.Errorf("%s: Apply succeeded, want range error", name)
		}
	}
}

func TestEditScriptAddsRegisters(t *testing.T) {
	s := &EditScript{Ops: []EditOp{{Op: "Add-Register", Pin: "R0", Src: "SI", Name: "x", Len: 1}}}
	if !s.AddsRegisters() {
		t.Fatal("AddsRegisters = false for add-register script")
	}
	s = &EditScript{Ops: []EditOp{{Op: OpCutReconnect, Pin: "R0", Src: "SI"}}}
	if s.AddsRegisters() {
		t.Fatal("AddsRegisters = true for wiring-only script")
	}
}

func TestEditScriptCanonicalHashNormalizationIndependent(t *testing.T) {
	a := &EditScript{Ops: []EditOp{{Op: "CUT-RECONNECT", Pin: "r2", Src: "si"}}}
	b := &EditScript{Ops: []EditOp{{Op: OpCutReconnect, Pin: "R2", Src: "SI"}}}
	ha, err := a.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("normalization changed the hash: %s vs %s", ha, hb)
	}
	c := &EditScript{Ops: []EditOp{{Op: OpCutReconnect, Pin: "R2", Src: "R0"}}}
	if hc, _ := c.CanonicalHash(); hc == ha {
		t.Fatal("different scripts share a hash")
	}
}

func TestParseEditScript(t *testing.T) {
	s, err := ParseEditScript([]byte(`{"ops":[{"op":"cut-reconnect","pin":"r2","src":"si"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops[0].Pin != "R2" {
		t.Fatalf("parsed script not canonicalized: %+v", s.Ops[0])
	}
	if _, err := ParseEditScript([]byte(`{"ops":[]}`)); err == nil {
		t.Fatal("empty ops accepted")
	}
	if _, err := ParseEditScript([]byte(`{"ops":[{"op":"connect","pin":"R0","src":"SI"}],"extra":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// FuzzParseEditScript drives the edit-script boundary: the JSON a
// client posts to /v1/analyses/{id}/delta. Parsing never panics; an
// accepted script is canonical (Canonical returns it unchanged, and its
// hash survives a JSON round trip); Validate accepts exactly the
// decoded scripts ParseEditScript accepts; and Apply on the diamond
// network either errors or returns a network that validates, leaving
// the base untouched.
func FuzzParseEditScript(f *testing.F) {
	for _, seed := range []string{
		// The delta-chain and offline delta-mode scripts of the CI jobs.
		`{"ops":[{"op":"add-register","pin":"R0","src":"SI","name":"d1","len":1,"module":0}]}`,
		`{"ops":[{"op":"add-register","pin":"R1","src":"SI","name":"d2","len":2,"module":0}]}`,
		`{"ops":[{"op":"add-register","pin":"R0","src":"SI","name":"dx","len":1,"module":0}]}`,
		`{"base":"diamond","ops":[{"op":"cut-reconnect","pin":"r2","src":"si"}]}`,
		`{"ops":[{"op":"add-register","pin":"R2","src":"R0","name":"N","len":2},{"op":"cut-reconnect","pin":"R1","src":"R3"}]}`,
		`{"ops":[{"op":"CONNECT","pin":"m0","pin_idx":1,"src":"R0"}]}`,
		`{"ops":[{"op":"connect","pin":"SO","src":"R1"}]}`,
		`{"ops":[{"op":"connect","pin":"R2147483648","src":"SI"}]}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"connect","pin":"R0","src":"SI"}],"extra":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseEditScript(data)

		var raw EditScript
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&raw) == nil {
			valid := raw.Validate() == nil && len(raw.Ops) > 0
			if valid != (err == nil) {
				t.Fatalf("Validate accepts %v, ParseEditScript err %v", valid, err)
			}
		} else if err == nil {
			t.Fatal("ParseEditScript accepted a script that does not decode")
		}
		if err != nil {
			return
		}

		c, err := s.Canonical()
		if err != nil || !reflect.DeepEqual(c, s) {
			t.Fatalf("parsed script is not a canonical fixed point (err %v):\n%+v\n%+v", err, s, c)
		}
		hash, err := s.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseEditScript(enc)
		if err != nil {
			t.Fatalf("encoded script does not parse: %v\n%s", err, enc)
		}
		if h, _ := back.CanonicalHash(); h != hash {
			t.Fatalf("hash changed over a JSON round trip:\n%s", enc)
		}

		// The daemon refuses scripts past its scan-FF cap before Apply;
		// a small cap here keeps huge lengths from allocating.
		added := 0
		for _, op := range s.Ops {
			if op.Op == OpAddRegister {
				if op.Len > 64-added {
					return
				}
				added += op.Len
			}
		}
		base := buildDiamond()
		nw, err := s.Apply(base)
		if !reflect.DeepEqual(base, buildDiamond()) {
			t.Fatal("Apply mutated the base network")
		}
		if err != nil {
			return
		}
		if err := nw.Validate(); err != nil {
			t.Fatalf("Apply returned an invalid network: %v", err)
		}
	})
}
