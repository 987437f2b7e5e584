package hybrid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/icl"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// TestSnapshotEncodeRoundTrip drives the full persistence seam:
// Snapshot → Encode → InitFrom → Restore into a freshly built analysis,
// whose cached state must then answer exactly like a from-scratch
// propagation.
func TestSnapshotEncodeRoundTrip(t *testing.T) {
	a, nw := catalogCase(t, "BasicSCB", 0.15, 7)
	snap, err := a.Snapshot(nw)
	if err != nil {
		t.Fatal(err)
	}
	data := snap.Encode()
	if len(data) > snap.EncodedWidth() {
		t.Fatalf("Encode produced %d bytes, EncodedWidth promised %d", len(data), snap.EncodedWidth())
	}
	if string(data) != string(snap.Encode()) {
		t.Fatal("Encode is not deterministic")
	}
	got, err := InitFrom(nw, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes() != snap.Nodes() {
		t.Fatalf("round trip changed node count: %d vs %d", got.Nodes(), snap.Nodes())
	}
	b := NewAnalysis(nw, a.Circuit, internalOf(a), a.Spec, a.Mode)
	if err := b.Restore(got); err != nil {
		t.Fatal(err)
	}
	propEqual(t, "restored fixed point", b.propagate(nw), b.fixedPoint(nw))
	if len(b.Violations(nw)) != len(a.Violations(nw)) {
		t.Fatal("restored analysis reports different violations")
	}
}

// TestSnapshotInitFromErrors checks the decoder's rejection paths:
// wrong wiring revision, truncation, trailing garbage, alien schema.
func TestSnapshotInitFromErrors(t *testing.T) {
	a, nw := catalogCase(t, "BasicSCB", 0.15, 7)
	snap, err := a.Snapshot(nw)
	if err != nil {
		t.Fatal(err)
	}
	data := snap.Encode()

	other := nw.Clone()
	pin := rsn.Sink{Elem: rsn.Reg(1), Idx: 0}
	if other.Registers[1].In == rsn.ScanIn {
		pin = rsn.Sink{Elem: rsn.Reg(2), Idx: 0}
	}
	if _, err := other.CutAndReconnect(pin, rsn.ScanIn); err != nil {
		t.Fatal(err)
	}
	if _, err := InitFrom(other, data); err == nil {
		t.Fatal("snapshot restored onto rewired network")
	}
	if _, err := InitFrom(nw, data[:len(data)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := InitFrom(nw, append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), data...)
	bad[1] ^= 0xff // inside the schema string
	if _, err := InitFrom(nw, bad); err == nil {
		t.Fatal("corrupted schema accepted")
	}

	// The frames before the node count, as Encode writes them.
	var hdr []byte
	for _, str := range []string{SnapshotSchema, rsn.CanonicalHash(nw)} {
		hdr = binary.AppendUvarint(hdr, uint64(len(str)))
		hdr = append(hdr, str...)
	}
	// A node count the remaining bytes cannot hold is refused before
	// anything is allocated for it.
	for _, n := range []uint64{uint64(snap.Nodes()) + 1, 1 << 33, 1 << 62} {
		huge := binary.AppendUvarint(append([]byte(nil), hdr...), n)
		if _, err := InitFrom(nw, append(huge, data[len(binary.AppendUvarint(hdr, uint64(snap.Nodes()))):]...)); err == nil {
			t.Fatalf("node count %d accepted", n)
		}
	}
	// An overlong varint decodes to the right value but would re-encode
	// to other bytes: the encoding is canonical, so it is refused.
	vals := len(binary.AppendUvarint(hdr, uint64(snap.Nodes())))
	overlong := append(append([]byte(nil), data[:vals]...), data[vals]|0x80, 0)
	if _, err := InitFrom(nw, append(overlong, data[vals+1:]...)); err == nil {
		t.Fatal("overlong attribute varint accepted")
	}
}

// TestApplyDeltaStructural checks the structural-fallback contract: a
// script that grows the register set still returns the derived network,
// but flags it with ErrStructuralDelta instead of computing violations
// against the stale index space.
func TestApplyDeltaStructural(t *testing.T) {
	a, nw := catalogCase(t, "BasicSCB", 0.15, 7)
	scr := &rsn.EditScript{Ops: []rsn.EditOp{
		{Op: rsn.OpAddRegister, Pin: "R0", Src: "SI", Name: "nx", Len: 2, Module: 0},
	}}
	if !scr.AddsRegisters() {
		t.Fatal("AddsRegisters = false")
	}
	derived, viols, err := a.ApplyDelta(nw, scr)
	if !errors.Is(err, ErrStructuralDelta) {
		t.Fatalf("err = %v, want ErrStructuralDelta", err)
	}
	if derived == nil || len(derived.Registers) != len(nw.Registers)+1 {
		t.Fatal("structural delta did not return the derived network")
	}
	if viols != nil {
		t.Fatal("structural delta returned violations from a stale index space")
	}
	// Snapshot rejects the incompatible wiring the same way.
	if _, err := a.Snapshot(derived); !errors.Is(err, ErrStructuralDelta) {
		t.Fatalf("Snapshot err = %v, want ErrStructuralDelta", err)
	}
}

// randomWiringScript builds a random wiring-only edit script against
// nw: one to maxOps cut/reconnect ops over register pins, each
// validated on an evolving clone so the whole script is applicable.
// Returns nil when no legal op was found.
func randomWiringScript(r *rand.Rand, nw *rsn.Network, maxOps int) *rsn.EditScript {
	tmp := nw.Clone()
	var ops []rsn.EditOp
	want := 1 + r.Intn(maxOps)
	for tries := 0; len(ops) < want && tries < 60; tries++ {
		reg := r.Intn(len(tmp.Registers))
		cur := tmp.Registers[reg].In
		// Candidate sources: any other register, or scan-in. Cycles and
		// other illegal rewirings are rejected by the trial validation.
		var srcs []rsn.Ref
		for cand := range tmp.Registers {
			if ref := rsn.Reg(cand); cand != reg && ref != cur {
				srcs = append(srcs, ref)
			}
		}
		if cur != rsn.ScanIn {
			srcs = append(srcs, rsn.ScanIn)
		}
		if len(srcs) == 0 {
			continue
		}
		src := srcs[r.Intn(len(srcs))]
		trial := tmp.Clone()
		if _, err := trial.CutAndReconnect(rsn.Sink{Elem: rsn.Reg(reg), Idx: 0}, src); err != nil || trial.Validate() != nil {
			continue
		}
		tmp = trial
		ops = append(ops, rsn.EditOp{Op: rsn.OpCutReconnect, Pin: rsn.Reg(reg).String(), Src: src.String()})
	}
	if len(ops) == 0 {
		return nil
	}
	return &rsn.EditScript{Ops: ops}
}

// violationSig folds a violation list into a comparable signature.
func violationSig(nw *rsn.Network, viols []Violation) string {
	return fmt.Sprintf("%s|%v", rsn.CanonicalHash(nw), viols)
}

// TestDeltaChainMatchesFullAnalysis is the randomized differential
// check of the incremental session seam: a chain of random edit
// scripts, applied through ApplyDelta on one long-lived analysis (with
// periodic Encode/InitFrom/Restore persistence round-trips mid-chain),
// must report bit-identical Violations and InsecureModulePairs to an
// independent from-scratch analysis of every derived network — and the
// whole chain must be invariant under the engine worker count.
func TestDeltaChainMatchesFullAnalysis(t *testing.T) {
	const steps = 25
	for _, name := range []string{"BasicSCB", "TreeFlat"} {
		t.Run(name, func(t *testing.T) {
			a0, base := catalogCase(t, name, 0.15, 7)
			internal := internalOf(a0)
			var ref []string
			for wi, workers := range []int{1, 3, 8} {
				an, err := NewAnalysisOpts(base, a0.Circuit, internal, a0.Spec, a0.Mode,
					engine.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(42)) // same chain at every worker count
				nw := base
				var sigs []string
				for step := 0; step < steps; step++ {
					scr := randomWiringScript(r, nw, 3)
					if scr == nil {
						t.Fatalf("workers=%d step %d: no legal edit found", workers, step)
					}
					derived, viols, err := an.ApplyDelta(nw, scr)
					if err != nil {
						t.Fatalf("workers=%d step %d: %v", workers, step, err)
					}
					fresh := NewAnalysis(derived, a0.Circuit, internal, a0.Spec, a0.Mode)
					if got, want := violationSig(derived, viols), violationSig(derived, fresh.Violations(derived)); got != want {
						t.Fatalf("workers=%d step %d: incremental violations diverge from full analysis:\n inc  %s\n full %s",
							workers, step, got, want)
					}
					if got, want := fmt.Sprint(an.InsecureModulePairs()), fmt.Sprint(fresh.InsecureModulePairs()); got != want {
						t.Fatalf("workers=%d step %d: insecure module pairs diverge: %s vs %s", workers, step, got, want)
					}
					sigs = append(sigs, violationSig(derived, viols))
					if step%7 == 3 {
						// Persistence round trip mid-chain: the restored
						// state must continue the chain unchanged.
						snap, err := an.Snapshot(derived)
						if err != nil {
							t.Fatalf("workers=%d step %d: %v", workers, step, err)
						}
						restored, err := InitFrom(derived, snap.Encode())
						if err != nil {
							t.Fatalf("workers=%d step %d: %v", workers, step, err)
						}
						if err := an.Restore(restored); err != nil {
							t.Fatalf("workers=%d step %d: %v", workers, step, err)
						}
					}
					nw = derived
				}
				if wi == 0 {
					ref = sigs
					continue
				}
				for i := range ref {
					if sigs[i] != ref[i] {
						t.Fatalf("workers=%d: step %d signature diverges from workers=1:\n %s\n %s",
							workers, i, sigs[i], ref[i])
					}
				}
			}
		})
	}
}

// FuzzInitFrom feeds arbitrary bytes to the snapshot decoder, decoded
// against a catalog network or an rsngen network: it must never panic,
// and a snapshot it accepts must re-encode to exactly the bytes it was
// read from (the encoding is canonical, so stored session snapshots
// are content-addressable). The seeds are the two networks' encoded
// fixed points.
func FuzzInitFrom(f *testing.F) {
	var nets []*rsn.Network
	add := func(a *Analysis, nw *rsn.Network) {
		snap, err := a.Snapshot(nw)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(len(nets)), snap.Encode())
		nets = append(nets, nw)
	}
	add(catalogCase(f, "BasicSCB", 0.15, 7))
	var buf bytes.Buffer
	if _, err := bench.StreamScaleICL(&buf, nil, bench.ScaleGenConfig{TargetScanFFs: 200, Seed: 5}); err != nil {
		f.Fatal(err)
	}
	nw, err := icl.ParseNetwork(buf.String(), nil)
	if err != nil {
		f.Fatal(err)
	}
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 5)
	spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), 5)
	add(NewAnalysis(nw, att.Circuit, att.Internal, spec, dep.Exact), nw)

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		s, err := InitFrom(nets[int(which)%len(nets)], data)
		if err != nil {
			return
		}
		if got := s.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted snapshot re-encodes to %d bytes, read from %d", len(got), len(data))
		}
	})
}
