package obfus

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/sat"
)

func boolsOf(bits ...int) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = b != 0
	}
	return out
}

// netChain builds SI -> R0(lens[0]) -> R1 -> ... -> SO, no muxes.
func netChain(lens ...int) *rsn.Network {
	nw := rsn.New("chain")
	m := nw.AddModule("m")
	prev := rsn.ScanIn
	for _, l := range lens {
		id := nw.AddRegister(regName(len(nw.Registers)), l, m)
		nw.Connect(id, prev)
		prev = rsn.Reg(id)
	}
	nw.ConnectOut(prev)
	return nw
}

func regName(i int) string { return "R" + string(rune('a'+i)) }

// netDiamond: SI -> A(2) -> {direct | via B(3)} -> M0 -> C(1) -> SO.
// The two mux branches have different path lengths (3 vs 6).
func netDiamond() *rsn.Network {
	nw := rsn.New("diamond")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 2, m)
	b := nw.AddRegister("B", 3, m)
	c := nw.AddRegister("C", 1, m)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(b, rsn.Reg(a))
	mx := nw.AddMux("M0", rsn.Reg(a), rsn.Reg(b))
	nw.Connect(c, rsn.Mx(mx))
	nw.ConnectOut(rsn.Reg(c))
	return nw
}

// netBalanced: SI -> A(1) -> {B1(1) | B2(1)} -> M0 -> C(1) -> SO. Both
// mux branches have the same path length, so delay probing cannot tell
// them apart.
func netBalanced() *rsn.Network {
	nw := rsn.New("balanced")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 1, m)
	b1 := nw.AddRegister("B1", 1, m)
	b2 := nw.AddRegister("B2", 1, m)
	c := nw.AddRegister("C", 1, m)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(b1, rsn.Reg(a))
	nw.Connect(b2, rsn.Reg(a))
	mx := nw.AddMux("M0", rsn.Reg(b1), rsn.Reg(b2))
	nw.Connect(c, rsn.Mx(mx))
	nw.ConnectOut(rsn.Reg(c))
	return nw
}

// netTwoMux: two reconvergent mux stages over five registers.
func netTwoMux() *rsn.Network {
	nw := rsn.New("twomux")
	m := nw.AddModule("m")
	a := nw.AddRegister("A", 1, m)
	b := nw.AddRegister("B", 2, m)
	c := nw.AddRegister("C", 1, m)
	d := nw.AddRegister("D", 1, m)
	e := nw.AddRegister("E", 1, m)
	nw.Connect(a, rsn.ScanIn)
	nw.Connect(b, rsn.Reg(a))
	m0 := nw.AddMux("M0", rsn.Reg(a), rsn.Reg(b))
	nw.Connect(c, rsn.Mx(m0))
	nw.Connect(d, rsn.Reg(c))
	m1 := nw.AddMux("M1", rsn.Reg(c), rsn.Reg(d))
	nw.Connect(e, rsn.Mx(m1))
	nw.ConnectOut(rsn.Reg(e))
	return nw
}

// mustSim runs the keyed reference simulator.
func mustSim(t *testing.T, nw *rsn.Network, ov *rsn.Obfuscation, key []bool, cfg rsn.Config, stream []bool, n int) []bool {
	t.Helper()
	ks, err := rsn.NewKeyedSimulator(nw, ov, key)
	if err != nil {
		t.Fatalf("NewKeyedSimulator: %v", err)
	}
	out, err := ks.ShiftN(cfg, stream, n)
	if err != nil {
		t.Fatalf("ShiftN: %v", err)
	}
	return out
}

// encoderCases pairs networks with overlays of every supported shape.
func encoderCases() []struct {
	name string
	nw   *rsn.Network
	ov   *rsn.Obfuscation
} {
	return []struct {
		name string
		nw   *rsn.Network
		ov   *rsn.Obfuscation
	}{
		{"chain-xor-static", netChain(2, 1, 2), &rsn.Obfuscation{
			NumKeyBits: 2,
			Gates: []rsn.KeyGate{
				{Kind: rsn.KeyXOR, Elem: 0, Bit: 0},
				{Kind: rsn.KeyXOR, Elem: 2, Bit: 1},
			}}},
		{"diamond-mixed-static", netDiamond(), &rsn.Obfuscation{
			NumKeyBits: 3,
			Gates: []rsn.KeyGate{
				{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
				{Kind: rsn.KeyXOR, Elem: 1, Bit: 1},
				{Kind: rsn.KeyXOR, Elem: 2, Bit: 2},
			}}},
		{"twomux-mixed-static", netTwoMux(), &rsn.Obfuscation{
			NumKeyBits: 4,
			Gates: []rsn.KeyGate{
				{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
				{Kind: rsn.KeyMux, Elem: 1, Bit: 1},
				{Kind: rsn.KeyXOR, Elem: 1, Bit: 2},
				{Kind: rsn.KeyXOR, Elem: 3, Bit: 3},
			}}},
		{"chain-xor-dynamic", netChain(1, 2, 1), &rsn.Obfuscation{
			NumKeyBits: 3, Dynamic: true, Taps: []int{0, 2},
			Gates: []rsn.KeyGate{
				{Kind: rsn.KeyXOR, Elem: 0, Bit: 0},
				{Kind: rsn.KeyXOR, Elem: 1, Bit: 2},
			}}},
		{"diamond-mixed-dynamic", netDiamond(), &rsn.Obfuscation{
			NumKeyBits: 3, Dynamic: true, Taps: []int{1},
			Gates: []rsn.KeyGate{
				{Kind: rsn.KeyMux, Elem: 0, Bit: 1},
				{Kind: rsn.KeyXOR, Elem: 0, Bit: 2},
			}}},
	}
}

// TestEncoderMatchesSimulator drives the CNF unroller and the keyed
// reference simulator with identical concrete inputs and demands
// identical scan-out streams — once through pure constant folding and
// once through real clauses with the key bound by solver assumptions.
func TestEncoderMatchesSimulator(t *testing.T) {
	for _, tc := range encoderCases() {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkAttackable(tc.nw, tc.ov); err != nil {
				t.Fatalf("checkAttackable: %v", err)
			}
			rng := rand.New(rand.NewSource(7))
			const horizon = 12
			cfgs, _ := enumConfigs(tc.nw, DefaultMaxConfigs)
			for trial := 0; trial < 20; trial++ {
				key := make([]bool, tc.ov.NumKeyBits)
				for i := range key {
					key[i] = rng.Intn(2) == 1
				}
				cfg := cfgs[rng.Intn(len(cfgs))]
				stream := make([]bool, horizon)
				for i := range stream {
					stream[i] = rng.Intn(2) == 1
				}
				want := mustSim(t, tc.nw, tc.ov, key, cfg, stream, horizon)

				// Constant folding: everything concrete.
				b := cnf.NewBuilder()
				e := newEncoder(b, tc.nw, tc.ov, horizon)
				keyLits := make([]sat.Lit, len(key))
				for i, v := range key {
					keyLits[i] = e.lit(v)
				}
				outs := e.unroll(keyLits, e.cfgConst(cfg), e.insConst(stream))
				for c := range outs {
					if !e.isT(outs[c]) && !e.isF(outs[c]) {
						t.Fatalf("trial %d cycle %d: concrete unroll left a symbolic literal", trial, c)
					}
					if e.isT(outs[c]) != want[c] {
						t.Fatalf("trial %d cycle %d: folded=%v sim=%v", trial, c, e.isT(outs[c]), want[c])
					}
				}

				// Real clauses: symbolic key bound via assumptions.
				b2 := cnf.NewBuilder()
				e2 := newEncoder(b2, tc.nw, tc.ov, horizon)
				kv := e2.keyVars()
				outs2 := e2.unroll(kv, e2.cfgConst(cfg), e2.insConst(stream))
				assums := make([]sat.Lit, len(kv))
				for i, v := range key {
					assums[i] = kv[i]
					if !v {
						assums[i] = kv[i].Not()
					}
				}
				if st := b2.S.Solve(assums...); st != sat.Sat {
					t.Fatalf("trial %d: keyed unroll unsatisfiable (%v)", trial, st)
				}
				for c := range outs2 {
					if e2.litVal(outs2[c]) != want[c] {
						t.Fatalf("trial %d cycle %d: cnf=%v sim=%v", trial, c, e2.litVal(outs2[c]), want[c])
					}
				}
			}
		})
	}
}

// TestKeyRecoveryMatchesBruteForce is the differential acceptance test:
// the SAT attack's recovered key must be bit-identical to brute-force
// enumeration's, and brute force must not care how many workers scan
// the key space.
func TestKeyRecoveryMatchesBruteForce(t *testing.T) {
	type tcase struct {
		name    string
		nw      *rsn.Network
		ov      *rsn.Obfuscation
		keySeed int64
	}
	cases := []tcase{}
	for _, ec := range encoderCases() {
		cases = append(cases, tcase{ec.name, ec.nw, ec.ov, 41})
	}
	// A wider static overlay exercising 6 key bits over two muxes.
	wide := netTwoMux()
	cases = append(cases, tcase{"twomux-6bit", wide, &rsn.Obfuscation{
		NumKeyBits: 6,
		Gates: []rsn.KeyGate{
			{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
			{Kind: rsn.KeyMux, Elem: 1, Bit: 1},
			{Kind: rsn.KeyXOR, Elem: 0, Bit: 2},
			{Kind: rsn.KeyXOR, Elem: 1, Bit: 3},
			{Kind: rsn.KeyXOR, Elem: 2, Bit: 4},
			{Kind: rsn.KeyXOR, Elem: 4, Bit: 5},
		}}, 97})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trueKey := rsn.KeyFromSeed(tc.keySeed, tc.ov.NumKeyBits)
			kr, err := KeyRecovery(context.Background(), tc.nw, tc.ov, trueKey, KeyRecoveryOptions{})
			if err != nil {
				t.Fatalf("KeyRecovery: %v", err)
			}
			if kr.Outcome != OutcomeRecovered {
				t.Fatalf("outcome %q after %d iterations", kr.Outcome, kr.Iterations)
			}
			if !kr.Verified {
				t.Fatalf("recovered key %s not equivalent to true key %s",
					rsn.KeyHex(kr.Key), rsn.KeyHex(trueKey))
			}
			var ref *BruteForceResult
			for _, workers := range []int{1, 3, 8} {
				bf, err := BruteForce(context.Background(), tc.nw, tc.ov, trueKey, BruteForceOptions{Workers: workers})
				if err != nil {
					t.Fatalf("BruteForce(workers=%d): %v", workers, err)
				}
				if ref == nil {
					ref = bf
				} else {
					if rsn.KeyHex(bf.Key) != rsn.KeyHex(ref.Key) || bf.EquivalentKeys != ref.EquivalentKeys {
						t.Fatalf("workers=%d: key %s (%d equivalent) != workers=1 key %s (%d equivalent)",
							workers, rsn.KeyHex(bf.Key), bf.EquivalentKeys, rsn.KeyHex(ref.Key), ref.EquivalentKeys)
					}
				}
			}
			if rsn.KeyHex(kr.Key) != rsn.KeyHex(ref.Key) {
				t.Fatalf("SAT key %s != brute-force key %s (true %s, %d equivalent keys)",
					rsn.KeyHex(kr.Key), rsn.KeyHex(ref.Key), rsn.KeyHex(trueKey), ref.EquivalentKeys)
			}
		})
	}
}

// TestKeyRecovery16Bit runs the differential test at the satellite's
// 16-key-bit ceiling.
func TestKeyRecovery16Bit(t *testing.T) {
	if testing.Short() {
		t.Skip("16-bit brute-force sweep in -short mode")
	}
	nw := rsn.New("wide16")
	m := nw.AddModule("m")
	prev := rsn.ScanIn
	var gates []rsn.KeyGate
	for i := 0; i < 14; i++ {
		id := nw.AddRegister(regName(i), 1, m)
		nw.Connect(id, prev)
		prev = rsn.Reg(id)
		gates = append(gates, rsn.KeyGate{Kind: rsn.KeyXOR, Elem: id, Bit: i})
		if i == 6 {
			mx := nw.AddMux("M0", prev, rsn.Reg(id-3))
			prev = rsn.Mx(mx)
			gates = append(gates, rsn.KeyGate{Kind: rsn.KeyMux, Elem: mx, Bit: 14})
		}
		if i == 11 {
			mx := nw.AddMux("M1", prev, rsn.Reg(id-2))
			prev = rsn.Mx(mx)
			gates = append(gates, rsn.KeyGate{Kind: rsn.KeyMux, Elem: mx, Bit: 15})
		}
	}
	nw.ConnectOut(prev)
	if err := nw.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ov := &rsn.Obfuscation{NumKeyBits: 16, Gates: gates}
	trueKey := rsn.KeyFromSeed(4242, 16)
	opts := KeyRecoveryOptions{Horizon: 40}
	kr, err := KeyRecovery(context.Background(), nw, ov, trueKey, opts)
	if err != nil {
		t.Fatalf("KeyRecovery: %v", err)
	}
	if kr.Outcome != OutcomeRecovered || !kr.Verified {
		t.Fatalf("outcome=%q verified=%v", kr.Outcome, kr.Verified)
	}
	for _, workers := range []int{1, 3, 8} {
		bf, err := BruteForce(context.Background(), nw, ov, trueKey, BruteForceOptions{Horizon: 40, Workers: workers})
		if err != nil {
			t.Fatalf("BruteForce(workers=%d): %v", workers, err)
		}
		if rsn.KeyHex(bf.Key) != rsn.KeyHex(kr.Key) {
			t.Fatalf("workers=%d: brute key %s != SAT key %s", workers, rsn.KeyHex(bf.Key), rsn.KeyHex(kr.Key))
		}
	}
}

// TestKeyRecoveryBudgets checks that iteration and conflict budgets
// produce a clean exhausted outcome instead of an error.
func TestKeyRecoveryBudgets(t *testing.T) {
	nw := netTwoMux()
	ov := &rsn.Obfuscation{NumKeyBits: 4, Gates: []rsn.KeyGate{
		{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
		{Kind: rsn.KeyMux, Elem: 1, Bit: 1},
		{Kind: rsn.KeyXOR, Elem: 1, Bit: 2},
		{Kind: rsn.KeyXOR, Elem: 3, Bit: 3},
	}}
	trueKey := rsn.KeyFromSeed(11, 4)
	kr, err := KeyRecovery(context.Background(), nw, ov, trueKey, KeyRecoveryOptions{MaxIterations: 1})
	if err != nil {
		t.Fatalf("KeyRecovery: %v", err)
	}
	if kr.Outcome != OutcomeExhausted {
		t.Fatalf("outcome %q with a 1-iteration budget", kr.Outcome)
	}
	if kr.Iterations > 1 {
		t.Fatalf("%d iterations with a 1-iteration budget", kr.Iterations)
	}
	if len(kr.Key) != 4 {
		t.Fatalf("exhausted run returned no candidate key")
	}
}

func TestFlushStaticXORChain(t *testing.T) {
	nw := netChain(1, 2, 1, 1)
	ov := &rsn.Obfuscation{NumKeyBits: 4, Gates: []rsn.KeyGate{
		{Kind: rsn.KeyXOR, Elem: 0, Bit: 0},
		{Kind: rsn.KeyXOR, Elem: 1, Bit: 1},
		{Kind: rsn.KeyXOR, Elem: 2, Bit: 2},
		{Kind: rsn.KeyXOR, Elem: 3, Bit: 3},
	}}
	trueKey := rsn.KeyFromSeed(5, 4)
	fl, err := FlushAttack(nw, ov, trueKey, FlushOptions{})
	if err != nil {
		t.Fatalf("FlushAttack: %v", err)
	}
	if !fl.Applicable || !fl.Correct {
		t.Fatalf("applicable=%v correct=%v", fl.Applicable, fl.Correct)
	}
	if fl.Rank != 4 || len(fl.RecoveredBits) != 4 {
		t.Fatalf("rank=%d recovered=%v, want full recovery of a pure XOR chain", fl.Rank, fl.RecoveredBits)
	}
	for i, b := range fl.RecoveredKey {
		if b != trueKey[i] {
			t.Fatalf("bit %d recovered as %v, true %v", i, b, trueKey[i])
		}
	}
}

func TestFlushDelayPinsMuxBit(t *testing.T) {
	// Diamond branches differ in length (3 vs 6), so the impulse delay
	// betrays the gated mux's effective select and pins its key bit.
	nw := netDiamond()
	ov := &rsn.Obfuscation{NumKeyBits: 2, Gates: []rsn.KeyGate{
		{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
		{Kind: rsn.KeyXOR, Elem: 2, Bit: 1},
	}}
	for _, seed := range []int64{1, 2, 3, 4} {
		trueKey := rsn.KeyFromSeed(seed, 2)
		fl, err := FlushAttack(nw, ov, trueKey, FlushOptions{})
		if err != nil {
			t.Fatalf("seed %d: FlushAttack: %v", seed, err)
		}
		if !fl.Applicable || !fl.Correct {
			t.Fatalf("seed %d: applicable=%v correct=%v", seed, fl.Applicable, fl.Correct)
		}
		if len(fl.RecoveredBits) != 2 {
			t.Fatalf("seed %d: recovered %v, want both bits", seed, fl.RecoveredBits)
		}
		for _, b := range fl.RecoveredBits {
			if fl.RecoveredKey[b] != trueKey[b] {
				t.Fatalf("seed %d: bit %d recovered as %v, true %v", seed, b, fl.RecoveredKey[b], trueKey[b])
			}
		}
	}
}

func TestFlushBalancedMuxStaysHidden(t *testing.T) {
	// Equal-length branches: delay probing is blind and the branch
	// parities disagree, so the probes are ambiguous and the key stays
	// unrecovered — while the SAT attack still collapses it.
	nw := netBalanced()
	ov := &rsn.Obfuscation{NumKeyBits: 2, Gates: []rsn.KeyGate{
		{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
		{Kind: rsn.KeyXOR, Elem: 1, Bit: 1}, // on branch register B1 only
	}}
	trueKey := rsn.KeyFromSeed(9, 2)
	fl, err := FlushAttack(nw, ov, trueKey, FlushOptions{})
	if err != nil {
		t.Fatalf("FlushAttack: %v", err)
	}
	if !fl.Applicable {
		t.Fatalf("balanced overlay should be applicable, reason %q", fl.Reason)
	}
	if len(fl.RecoveredBits) != 0 {
		t.Fatalf("flush recovered %v from a balanced mux overlay", fl.RecoveredBits)
	}
	if fl.AmbiguousProbes == 0 {
		t.Fatal("expected ambiguous probes on equal-length branches")
	}
	kr, err := KeyRecovery(context.Background(), nw, ov, trueKey, KeyRecoveryOptions{})
	if err != nil {
		t.Fatalf("KeyRecovery: %v", err)
	}
	if kr.Outcome != OutcomeRecovered || !kr.Verified {
		t.Fatalf("SAT attack should break what flush cannot: outcome=%q verified=%v", kr.Outcome, kr.Verified)
	}
}

func TestFlushDynamicXOR(t *testing.T) {
	nw := netChain(1, 1, 2)
	ov := &rsn.Obfuscation{NumKeyBits: 3, Dynamic: true, Taps: []int{0, 1},
		Gates: []rsn.KeyGate{
			{Kind: rsn.KeyXOR, Elem: 0, Bit: 0},
			{Kind: rsn.KeyXOR, Elem: 1, Bit: 1},
			{Kind: rsn.KeyXOR, Elem: 2, Bit: 2},
		}}
	trueKey := rsn.KeyFromSeed(13, 3)
	fl, err := FlushAttack(nw, ov, trueKey, FlushOptions{})
	if err != nil {
		t.Fatalf("FlushAttack: %v", err)
	}
	if !fl.Applicable || !fl.Correct {
		t.Fatalf("applicable=%v correct=%v", fl.Applicable, fl.Correct)
	}
	if len(fl.RecoveredBits) == 0 {
		t.Fatal("dynamic XOR gating is linear; flush should recover key bits")
	}
	for _, b := range fl.RecoveredBits {
		if fl.RecoveredKey[b] != trueKey[b] {
			t.Fatalf("bit %d recovered as %v, true %v", b, fl.RecoveredKey[b], trueKey[b])
		}
	}
}

func TestFlushDynamicMuxInapplicable(t *testing.T) {
	nw := netDiamond()
	ov := &rsn.Obfuscation{NumKeyBits: 2, Dynamic: true, Taps: []int{0},
		Gates: []rsn.KeyGate{
			{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
			{Kind: rsn.KeyXOR, Elem: 2, Bit: 1},
		}}
	trueKey := rsn.KeyFromSeed(3, 2)
	fl, err := FlushAttack(nw, ov, trueKey, FlushOptions{})
	if err != nil {
		t.Fatalf("FlushAttack: %v", err)
	}
	if fl.Applicable {
		t.Fatal("dynamic mux gating should be out of the flush attack's reach")
	}
	if fl.Reason == "" {
		t.Fatal("inapplicable result must carry a reason")
	}
}

func TestObfuscateNetworkDeterministic(t *testing.T) {
	nw := netTwoMux()
	a, keyA, err := ObfuscateNetwork(nw, GenConfig{KeyBits: 5, MuxShare: -1}, 77)
	if err != nil {
		t.Fatalf("ObfuscateNetwork: %v", err)
	}
	b, keyB, err := ObfuscateNetwork(nw, GenConfig{KeyBits: 5, MuxShare: -1}, 77)
	if err != nil {
		t.Fatalf("ObfuscateNetwork: %v", err)
	}
	if rsn.KeyHex(keyA) != rsn.KeyHex(keyB) || len(a.Gates) != len(b.Gates) {
		t.Fatal("same seed produced different overlays")
	}
	for i := range a.Gates {
		if a.Gates[i] != b.Gates[i] {
			t.Fatalf("gate %d differs: %+v vs %+v", i, a.Gates[i], b.Gates[i])
		}
	}
	c, _, err := ObfuscateNetwork(nw, GenConfig{KeyBits: 5, MuxShare: -1}, 78)
	if err != nil {
		t.Fatalf("ObfuscateNetwork: %v", err)
	}
	same := len(a.Gates) == len(c.Gates)
	if same {
		for i := range a.Gates {
			if a.Gates[i] != c.Gates[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical gate placement")
	}
	if _, _, err := ObfuscateNetwork(nw, GenConfig{KeyBits: 40}, 1); err == nil {
		t.Fatal("KeyBits beyond gate capacity should error")
	}
}

func TestReportRoundTrip(t *testing.T) {
	nw := netDiamond()
	ov := &rsn.Obfuscation{NumKeyBits: 2, Gates: []rsn.KeyGate{
		{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
		{Kind: rsn.KeyXOR, Elem: 2, Bit: 1},
	}}
	trueKey := rsn.KeyFromSeed(21, 2)
	kr, err := KeyRecovery(context.Background(), nw, ov, trueKey, KeyRecoveryOptions{})
	if err != nil {
		t.Fatalf("KeyRecovery: %v", err)
	}
	fl, err := FlushAttack(nw, ov, trueKey, FlushOptions{})
	if err != nil {
		t.Fatalf("FlushAttack: %v", err)
	}
	rep := NewReport("test", nw, ov, kr.Horizon, kr, fl)
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, rep); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	got, err := obs.ReadDoc[Report](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if got.SAT == nil || got.Flush == nil || got.SAT.RecoveredKey != rep.SAT.RecoveredKey {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Overlay.MuxGates != 1 || got.Overlay.XORGates != 1 {
		t.Fatalf("overlay info %+v", got.Overlay)
	}

	bad := *rep
	bad.Schema = "rsnsec.attack-report/v0"
	if err := bad.Validate(); err == nil {
		t.Fatal("wrong schema accepted")
	}
	bad2 := *rep
	badSAT := *rep.SAT
	badSAT.Outcome = "partial"
	bad2.SAT = &badSAT
	if err := bad2.Validate(); err == nil {
		t.Fatal("unknown outcome accepted")
	}
}

func TestWriteMiterDIMACS(t *testing.T) {
	nw := netDiamond()
	ov := &rsn.Obfuscation{NumKeyBits: 3, Gates: []rsn.KeyGate{
		{Kind: rsn.KeyMux, Elem: 0, Bit: 0},
		{Kind: rsn.KeyXOR, Elem: 1, Bit: 1},
		{Kind: rsn.KeyXOR, Elem: 2, Bit: 2},
	}}
	var buf bytes.Buffer
	if err := WriteMiterDIMACS(&buf, nw, ov, 16); err != nil {
		t.Fatalf("WriteMiterDIMACS: %v", err)
	}
	s, err := sat.LoadDIMACS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadDIMACS: %v", err)
	}
	// The overlay is distinguishable, so some pair of keys must differ
	// observably: the exported miter is satisfiable.
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("miter solved %v, want SAT", st)
	}
}
