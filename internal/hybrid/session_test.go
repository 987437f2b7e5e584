package hybrid

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/rsn"
)

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
// scripts, applied through ApplyDelta on one long-lived analysis, must
// report bit-identical Violations and InsecureModulePairs to an
// independent from-scratch analysis of every derived network — and the
// whole chain must be invariant under the engine worker count. Every
// seventh step the chain continues on an analysis built afresh over the
// derived network, as a session does when it is hydrated after
// eviction or a restart.
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
						// Hydration mid-chain: an analysis rebuilt over
						// the derived network, with no cached fixed
						// point, must continue the chain unchanged.
						an, err = NewAnalysisOpts(derived, a0.Circuit, internal, a0.Spec, a0.Mode,
							engine.Options{Workers: workers})
						if err != nil {
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
