// Package pure holds the tests of the pure-path stage (the method of
// Raiola et al., IOLTS 2018, that the paper applies first): the
// resolver, hybrid.ResolvePure, runs on the hybrid witness-repair
// engine over a register-level view, and these tests drive it from
// outside and check it against the from-scratch reference resolver of
// reference_test.go.
package pure

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// violatingRegisters returns the registers with a pure-path violation,
// ascending, by the reference propagation.
func violatingRegisters(nw *rsn.Network, spec *secspec.Spec) []int {
	return referencePropagate(nw, spec).Violating
}

// chainSpec builds SI -> A(crypto) -> B(untrusted) -> C(plain) -> SO and
// a spec where crypto data must not traverse untrusted segments.
func chainSpec() (*rsn.Network, *secspec.Spec) {
	nw := rsn.New("chain")
	crypto := nw.AddModule("crypto")
	untrusted := nw.AddModule("untrusted")
	plain := nw.AddModule("plain")
	a := nw.AddRegister("A", 2, crypto)
	b := nw.AddRegister("B", 2, untrusted)
	c := nw.AddRegister("C", 2, plain)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(b, rsn.Reg(a))
	nw.Connect(c, rsn.Reg(b))
	nw.ConnectOut(rsn.Reg(c))

	spec := secspec.New(3, 4)
	spec.SetTrust(crypto, 3)
	spec.SetAccepts(crypto, secspec.NewCatSet(2, 3)) // only high trust
	spec.SetTrust(untrusted, 0)
	spec.SetAccepts(untrusted, secspec.AllCats(4))
	spec.SetTrust(plain, 2)
	spec.SetAccepts(plain, secspec.AllCats(4))
	return nw, spec
}

func TestPropagateChain(t *testing.T) {
	nw, spec := chainSpec()
	p := referencePropagate(nw, spec)
	if got := p.Out(rsn.ScanIn); got != secspec.AllCats(4) {
		t.Fatalf("scan-in out = %v", got)
	}
	// A's incoming attribute is unrestricted; its outgoing is {2,3}
	// (crypto accepts plus its own trust).
	if got := p.In(rsn.Reg(0)); got != secspec.AllCats(4) {
		t.Fatalf("A in = %v", got)
	}
	if got := p.Out(rsn.Reg(0)); got != secspec.NewCatSet(2, 3) {
		t.Fatalf("A out = %v", got)
	}
	// B (trust 0) receives {2,3}: violation.
	if len(p.Violating) != 1 || p.Violating[0] != 1 {
		t.Fatalf("Violating = %v", p.Violating)
	}
	// C (trust 2) is fine: bit 2 present in its incoming attribute.
	if !p.In(rsn.Reg(2)).Has(2) {
		t.Fatal("C must accept its own data")
	}
}

func TestFindCulprit(t *testing.T) {
	nw, spec := chainSpec()
	x, ok := hybrid.FindCulprit(nw, spec, 1, nw.PurePredecessors(1, new(rsn.Marks)))
	if !ok || x != 0 {
		t.Fatalf("culprit = %d, %v", x, ok)
	}
	if _, ok := hybrid.FindCulprit(nw, spec, 2, nw.PurePredecessors(2, new(rsn.Marks))); ok {
		t.Fatal("C has no culprit")
	}
}

func TestResolveChain(t *testing.T) {
	nw, spec := chainSpec()
	res, err := hybrid.ResolvePure(nw, spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationsBefore != 1 {
		t.Fatalf("ViolatingBefore = %d", res.ViolationsBefore)
	}
	if len(res.Changes) == 0 {
		t.Fatal("expected at least one change")
	}
	if err := nw.Validate(); err != nil {
		t.Fatalf("network invalid after resolve: %v", err)
	}
	if v := violatingRegisters(nw, spec); len(v) != 0 {
		t.Fatalf("violations remain: %v", v)
	}
	if nw.PureReaches(rsn.Reg(0), rsn.Reg(1)) {
		t.Fatal("crypto data still reaches untrusted register")
	}
	// All registers still present and accessible (Validate checked
	// reachability; double-check count).
	if len(nw.Registers) != 3 {
		t.Fatal("registers lost")
	}
}

func TestResolveNoViolations(t *testing.T) {
	nw, spec := chainSpec()
	// Loosen the spec: crypto accepts everything.
	spec.SetAccepts(0, secspec.AllCats(4))
	res, err := hybrid.ResolvePure(nw, spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 || res.ViolationsBefore != 0 {
		t.Fatalf("unexpected changes: %+v", res)
	}
}

func TestResolveDiamondPrefersCheapCut(t *testing.T) {
	// SI -> A(crypto) -> B(untrusted) ; SI -> D(plain) ; M{A,D} -> ...
	//
	//	SI -> A -> M0{A, D} -> B -> SO
	//	SI -> D
	//
	// Cutting B's input from M0 and reconnecting to D resolves the
	// violation without losing access to any register.
	nw := rsn.New("diamond")
	crypto := nw.AddModule("crypto")
	untrusted := nw.AddModule("untrusted")
	plain := nw.AddModule("plain")
	a := nw.AddRegister("A", 2, crypto)
	d := nw.AddRegister("D", 2, plain)
	b := nw.AddRegister("B", 2, untrusted)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(d, rsn.ScanIn)
	m := nw.AddMux("M0", rsn.Reg(a), rsn.Reg(d))
	nw.Connect(b, rsn.Mx(m))
	mo := nw.AddMux("MO", rsn.Reg(b), rsn.Reg(a))
	nw.ConnectOut(rsn.Mx(mo))

	spec := secspec.New(3, 4)
	spec.SetTrust(crypto, 3)
	spec.SetAccepts(crypto, secspec.NewCatSet(2, 3))
	spec.SetTrust(untrusted, 0)
	spec.SetAccepts(untrusted, secspec.AllCats(4))
	spec.SetTrust(plain, 2)
	spec.SetAccepts(plain, secspec.AllCats(4))

	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := hybrid.ResolvePure(nw, spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("changes = %v", res.Changes)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(violatingRegisters(nw, spec)) != 0 {
		t.Fatal("violations remain")
	}
	if nw.PureReaches(rsn.Reg(a), rsn.Reg(b)) {
		t.Fatal("A still reaches B")
	}
	// D must still be able to feed B or B be fed from scan-in; B must
	// still be accessible — Validate covers it.
}

func TestResolveMultipleViolations(t *testing.T) {
	// Two untrusted registers downstream of crypto.
	nw := rsn.New("multi")
	crypto := nw.AddModule("crypto")
	u1 := nw.AddModule("u1")
	u2 := nw.AddModule("u2")
	a := nw.AddRegister("A", 1, crypto)
	b := nw.AddRegister("B", 1, u1)
	c := nw.AddRegister("C", 1, u2)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(b, rsn.Reg(a))
	nw.Connect(c, rsn.Reg(b))
	nw.ConnectOut(rsn.Reg(c))

	spec := secspec.New(3, 4)
	spec.SetTrust(crypto, 3)
	spec.SetAccepts(crypto, secspec.NewCatSet(3))
	spec.SetTrust(u1, 0)
	spec.SetAccepts(u1, secspec.AllCats(4))
	spec.SetTrust(u2, 1)
	spec.SetAccepts(u2, secspec.AllCats(4))

	res, err := hybrid.ResolvePure(nw, spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(violatingRegisters(nw, spec)) != 0 {
		t.Fatal("violations remain")
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) == 0 {
		t.Fatal("expected changes")
	}
	if nw.PureReaches(rsn.Reg(a), rsn.Reg(b)) || nw.PureReaches(rsn.Reg(a), rsn.Reg(c)) {
		t.Fatal("crypto data still reaches untrusted registers")
	}
}

// randomNetwork builds a random acyclic scan network with one module
// per register.
func randomNetwork(rng *rand.Rand, nRegs int) *rsn.Network {
	nw := rsn.New("rand")
	for i := 0; i < nRegs; i++ {
		m := nw.AddModule("mod" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		nw.AddRegister("R"+string(rune('A'+i%26))+string(rune('0'+i/26)), 1+rng.Intn(4), m)
	}
	// Connect register i to a random earlier element (acyclic by
	// construction), occasionally through a mux over earlier elements.
	for i := 0; i < nRegs; i++ {
		pick := func() rsn.Ref {
			if i == 0 || rng.Intn(4) == 0 {
				return rsn.ScanIn
			}
			return rsn.Reg(rng.Intn(i))
		}
		if i > 1 && rng.Intn(3) == 0 {
			a, b := pick(), pick()
			if a == b {
				b = rsn.ScanIn
			}
			if a == b {
				nw.Connect(i, a)
				continue
			}
			m := nw.AddMux("mux", a, b)
			nw.Connect(i, rsn.Mx(m))
		} else {
			nw.Connect(i, pick())
		}
	}
	// Scan-out: mux over all sink-less registers so everything reaches
	// the scan-out port.
	var dangling []rsn.Ref
	for i := 0; i < nRegs; i++ {
		if len(nw.Sinks(rsn.Reg(i))) == 0 {
			dangling = append(dangling, rsn.Reg(i))
		}
	}
	switch len(dangling) {
	case 0:
		nw.ConnectOut(rsn.Reg(nRegs - 1))
	case 1:
		nw.ConnectOut(dangling[0])
	default:
		m := nw.AddMux("mout", dangling...)
		nw.ConnectOut(rsn.Mx(m))
	}
	return nw
}

func TestResolveRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	resolvedSomething := false
	for iter := 0; iter < 40; iter++ {
		nRegs := 4 + rng.Intn(10)
		nw := randomNetwork(rng, nRegs)
		if err := nw.Validate(); err != nil {
			t.Fatalf("iter %d: generated network invalid: %v", iter, err)
		}
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), rng.Int63())
		before := len(violatingRegisters(nw, spec))
		res, err := hybrid.ResolvePure(nw, spec, engine.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := nw.Validate(); err != nil {
			t.Fatalf("iter %d: invalid after resolve: %v", iter, err)
		}
		if v := violatingRegisters(nw, spec); len(v) != 0 {
			t.Fatalf("iter %d: %d violations remain", iter, len(v))
		}
		if len(nw.Registers) != nRegs {
			t.Fatalf("iter %d: register count changed", iter)
		}
		if before > 0 {
			resolvedSomething = true
			if len(res.Changes) == 0 {
				t.Fatalf("iter %d: violations existed but no changes", iter)
			}
		}
	}
	if !resolvedSomething {
		t.Fatal("test never exercised resolution; adjust generator")
	}
}

func TestChangeCostAndString(t *testing.T) {
	c := rsn.Change{Cut: rsn.Sink{Elem: rsn.Reg(1)}, OldSrc: rsn.Reg(0), NewSrc: rsn.ScanIn, NewMuxes: 1}
	if c.Cost() != 2 {
		t.Fatalf("Cost = %d", c.Cost())
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
	// The changes the pure stage reports carry the same cost and
	// description as any other rsn.Change.
	nw, spec := chainSpec()
	res, err := hybrid.ResolvePure(nw, spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) == 0 {
		t.Fatal("expected at least one change")
	}
	for _, ch := range res.Changes {
		if ch.Cost() != 1+ch.NewMuxes {
			t.Fatalf("%v: Cost = %d, want %d", ch, ch.Cost(), 1+ch.NewMuxes)
		}
		if ch.OldSrc == ch.NewSrc {
			t.Fatalf("%v: change keeps its source", ch)
		}
		if ch.String() == "" {
			t.Fatal("empty String")
		}
	}
}
