package rsn

import (
	"testing"

	"repro/internal/netlist"
)

// buildDiamond returns a network
//
//	SI -> A -> M0{A,B} -> C -> SO
//	      A -> B
//
// where configuring M0 to 0 gives path A,C and to 1 gives A,B,C.
func buildDiamond() *Network {
	nw := New("diamond")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 2, m)
	b := nw.AddRegister("B", 3, m)
	c := nw.AddRegister("C", 1, m)
	nw.Connect(a, ScanIn)
	nw.Connect(b, Reg(a))
	mx := nw.AddMux("M0", Reg(a), Reg(b))
	nw.Connect(c, Mx(mx))
	nw.ConnectOut(Reg(c))
	return nw
}

func TestValidateDiamond(t *testing.T) {
	nw := buildDiamond()
	if err := nw.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := nw.Stats()
	if st.Registers != 3 || st.ScanFFs != 6 || st.Muxes != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestValidateUnconnectedRegister(t *testing.T) {
	nw := New("bad")
	m := nw.AddModule("m")
	nw.AddRegister("A", 1, m)
	nw.ConnectOut(Reg(0))
	if err := nw.Validate(); err == nil {
		t.Fatal("expected unconnected input error")
	}
}

func TestValidateUnconnectedScanOut(t *testing.T) {
	nw := New("bad")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 1, m)
	nw.Connect(a, ScanIn)
	if err := nw.Validate(); err == nil {
		t.Fatal("expected unconnected scan-out error")
	}
}

func TestValidateCycle(t *testing.T) {
	nw := New("cyc")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 1, m)
	b := nw.AddRegister("B", 1, m)
	nw.Connect(a, Reg(b))
	nw.Connect(b, Reg(a))
	nw.ConnectOut(Reg(b))
	if err := nw.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestValidateUnreachableFromScanIn(t *testing.T) {
	nw := New("orphan")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 1, m)
	b := nw.AddRegister("B", 1, m)
	nw.Connect(a, ScanIn)
	nw.Connect(b, Reg(b)) // self loop; also a cycle
	nw.ConnectOut(Reg(a))
	if err := nw.Validate(); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateCannotReachScanOut(t *testing.T) {
	nw := New("deadend")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 1, m)
	b := nw.AddRegister("B", 1, m)
	nw.Connect(a, ScanIn)
	nw.Connect(b, ScanIn)
	nw.ConnectOut(Reg(a)) // B feeds nothing
	if err := nw.Validate(); err == nil {
		t.Fatal("expected unreachable-scan-out error")
	}
}

func TestActivePath(t *testing.T) {
	nw := buildDiamond()
	cfg := nw.NewConfig()
	cfg[0] = 0 // select A directly
	path, err := nw.ActivePath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []PathElement{{0, 0}, {0, 1}, {2, 0}}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
	cfg[0] = 1 // through B
	path, err = nw.ActivePath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Fatalf("long path length = %d, want 6", len(path))
	}
	if path[2].Register != 1 || path[5].Register != 2 {
		t.Fatalf("long path = %v", path)
	}
}

func TestActivePathBadSelect(t *testing.T) {
	nw := buildDiamond()
	cfg := Config{5}
	if _, err := nw.ActivePath(cfg); err == nil {
		t.Fatal("expected select out of range error")
	}
}

func TestConfigsThrough(t *testing.T) {
	nw := buildDiamond()
	for id := 0; id < 3; id++ {
		cfg, ok := nw.ConfigsThrough(id)
		if !ok {
			t.Fatalf("no config through R%d", id)
		}
		path, err := nw.ActivePath(cfg)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, pe := range path {
			if pe.Register == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("config %v path %v does not contain R%d", cfg, path, id)
		}
	}
}

func TestPureReachability(t *testing.T) {
	nw := buildDiamond()
	if !nw.PureReaches(Reg(0), Reg(2)) {
		t.Error("A must reach C")
	}
	if !nw.PureReaches(Reg(1), Reg(2)) {
		t.Error("B must reach C")
	}
	if nw.PureReaches(Reg(2), Reg(0)) {
		t.Error("C must not reach A")
	}
	preds := nw.PurePredecessors(2)
	if len(preds) != 2 {
		t.Errorf("predecessors of C = %v", preds)
	}
	succs := nw.PureSuccessors(0)
	if len(succs) != 2 {
		t.Errorf("successors of A = %v", succs)
	}
	if got := nw.PureSuccessors(2); len(got) != 0 {
		t.Errorf("successors of C = %v", got)
	}
}

func TestSinksAndSetSink(t *testing.T) {
	nw := buildDiamond()
	sinks := nw.Sinks(Reg(0)) // A feeds B and M0 input 0
	if len(sinks) != 2 {
		t.Fatalf("sinks of A = %v", sinks)
	}
	// Rewire M0 input 0 to scan-in.
	var muxSink Sink
	for _, s := range sinks {
		if s.Elem.Kind == KMux {
			muxSink = s
		}
	}
	nw.SetSink(muxSink, ScanIn)
	if got := nw.SinkSource(muxSink); got != ScanIn {
		t.Fatalf("SinkSource = %v", got)
	}
	if len(nw.Sinks(Reg(0))) != 1 {
		t.Fatal("A should now feed only B")
	}
}

func TestCloneIndependence(t *testing.T) {
	nw := buildDiamond()
	cp := nw.Clone()
	cp.Connect(2, ScanIn)
	cp.Muxes[0].Inputs[0] = ScanIn
	cp.Registers[0].Capture[0] = 7
	if nw.Registers[2].In == ScanIn {
		t.Fatal("clone shares register state")
	}
	if nw.Muxes[0].Inputs[0] == ScanIn {
		t.Fatal("clone shares mux inputs")
	}
	if nw.Registers[0].Capture[0] == 7 {
		t.Fatal("clone shares capture slices")
	}
}

func TestRefString(t *testing.T) {
	if ScanIn.String() != "SI" || ScanOut.String() != "SO" {
		t.Fatal("port names")
	}
	if Reg(3).String() != "R3" || Mx(1).String() != "M1" {
		t.Fatal("element names")
	}
	if NoRef.String() != "<none>" {
		t.Fatal("NoRef name")
	}
}

func TestShiftThroughPath(t *testing.T) {
	nw := buildDiamond()
	sim := NewSimulator(nw, nil)
	cfg := nw.NewConfig()
	cfg[0] = 1 // A,B,C: 6 FFs
	bits := []bool{true, false, true, true, false, false}
	out, err := sim.ShiftN(cfg, bits, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if o {
			t.Fatalf("unexpected nonzero scan-out %v", out)
		}
	}
	// After 6 shifts the 6-FF path holds the bits; first bit shifted in
	// is now at the end of the path (register C).
	if !sim.ScanFF(2, 0) {
		t.Fatal("first bit must have reached register C")
	}
	// Shifting 6 more cycles streams the pattern out in order.
	out, err = sim.ShiftN(cfg, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range bits {
		if out[i] != want {
			t.Fatalf("scan-out[%d] = %v, want %v (%v)", i, out[i], want, out)
		}
	}
}

func TestCaptureUpdateRoundTrip(t *testing.T) {
	// Circuit: two FFs holding state; scan register captures from f0 and
	// updates into f1.
	cn := netlist.New()
	cm := cn.AddModule("m")
	f0 := cn.AddFF("f0", cm)
	f1 := cn.AddFF("f1", cm)
	cn.SetFFInput(f0, cn.FFs[f0].Node) // hold
	cn.SetFFInput(f1, cn.FFs[f1].Node) // hold
	csim := netlist.NewSimulator(cn)

	nw := New("cap")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 2, m)
	nw.Connect(a, ScanIn)
	nw.ConnectOut(Reg(a))
	nw.SetCapture(a, 0, f0)
	nw.SetUpdate(a, 1, f1)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}

	sim := NewSimulator(nw, csim)
	csim.SetFF(f0, true)
	cfg := nw.NewConfig()
	if err := sim.Capture(cfg); err != nil {
		t.Fatal(err)
	}
	if !sim.ScanFF(a, 0) {
		t.Fatal("capture did not load f0")
	}
	// Shift once: the captured bit moves from position 0 to 1.
	if _, err := sim.Shift(cfg, false); err != nil {
		t.Fatal(err)
	}
	if !sim.ScanFF(a, 1) {
		t.Fatal("shift did not move captured bit")
	}
	if err := sim.Update(cfg); err != nil {
		t.Fatal(err)
	}
	if !csim.FFValue(f1) {
		t.Fatal("update did not write f1")
	}
}

func TestShiftOffPathRegistersUntouched(t *testing.T) {
	nw := buildDiamond()
	sim := NewSimulator(nw, nil)
	sim.SetScanFF(1, 1, true) // register B, off path when cfg[0]=0
	cfg := nw.NewConfig()
	cfg[0] = 0
	if _, err := sim.ShiftN(cfg, []bool{true, true, true}, 3); err != nil {
		t.Fatal(err)
	}
	if !sim.ScanFF(1, 1) {
		t.Fatal("off-path register must keep its value")
	}
}

func TestNumScanFFs(t *testing.T) {
	nw := buildDiamond()
	if nw.NumScanFFs() != 6 {
		t.Fatalf("NumScanFFs = %d", nw.NumScanFFs())
	}
}

func TestAddRegisterPanicsOnZeroLen(t *testing.T) {
	nw := New("p")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw.AddRegister("bad", 0, 0)
}

func TestElementTopoOrder(t *testing.T) {
	nw := buildDiamond()
	order := nw.ElementTopoOrder()
	pos := map[Ref]int{}
	for i, r := range order {
		pos[r] = i
	}
	if order[0] != ScanIn || order[len(order)-1] != ScanOut {
		t.Fatalf("order endpoints wrong: %v", order)
	}
	// Every element appears once and after its inputs.
	if len(order) != 2+3+1 {
		t.Fatalf("order = %v", order)
	}
	for _, r := range order {
		for _, in := range nw.InputsOf(r) {
			if pos[in] >= pos[r] {
				t.Fatalf("input %v not before %v in %v", in, r, order)
			}
		}
	}
}

func TestInputsOf(t *testing.T) {
	nw := buildDiamond()
	if ins := nw.InputsOf(Mx(0)); len(ins) != 2 {
		t.Fatalf("mux inputs = %v", ins)
	}
	if ins := nw.InputsOf(Reg(0)); len(ins) != 1 || ins[0] != ScanIn {
		t.Fatalf("register inputs = %v", ins)
	}
	if ins := nw.InputsOf(ScanIn); ins != nil {
		t.Fatalf("scan-in inputs = %v", ins)
	}
	if ins := nw.InputsOf(ScanOut); len(ins) != 1 {
		t.Fatalf("scan-out inputs = %v", ins)
	}
}

func TestChangeCostString(t *testing.T) {
	c := Change{Cut: Sink{Elem: Reg(2)}, OldSrc: Mx(0), NewSrc: ScanIn, NewMuxes: 1}
	if c.Cost() != 2 {
		t.Fatalf("Cost = %d", c.Cost())
	}
	if got, want := c.String(), "cut R2<-M0, reconnect to SI (+1 mux)"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
