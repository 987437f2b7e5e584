package verify

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/paperex"
	"repro/internal/secspec"
)

func TestRunningExampleInsecure(t *testing.T) {
	e := paperex.New()
	res := Check(e.Network, e.Circuit, e.Spec)
	if res.Secure {
		t.Fatal("the insecure running example must fail verification")
	}
	found := false
	for _, f := range res.Counterexamples {
		if f.Src == e.Crypto && f.Dst == e.Untrusted {
			found = true
			if !f.UsesScanWiring {
				t.Error("the crypto->untrusted flow must use reconfigurable wiring")
			}
			if len(f.Path) < 3 {
				t.Errorf("counterexample path too short: %v", f.Path)
			}
			if f.String() == "" {
				t.Error("empty rendering")
			}
		}
	}
	if !found {
		t.Fatalf("crypto->untrusted flow missing: %v", res.Counterexamples)
	}
	if res.ExhaustiveChecks == 0 {
		t.Error("small cones should be checked exhaustively")
	}
}

func TestRunningExampleSecuredPassesVerification(t *testing.T) {
	e := paperex.New()
	rep, err := core.Secure(e.Network, e.Circuit, e.Internal, e.Spec, core.Options{Mode: dep.Exact})
	if err != nil || !rep.Secured {
		t.Fatalf("secure failed: %v", err)
	}
	res := Check(e.Network, e.Circuit, e.Spec)
	if !res.Secure {
		for _, f := range res.Counterexamples {
			t.Errorf("counterexample: %v", f)
		}
		t.Fatal("secured network failed independent verification")
	}
}

// TestCrossValidationFuzz secures random networks and confirms with the
// independent checker; it also confirms agreement on the insecure
// originals.
func TestCrossValidationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	secured, confirmedInsecure := 0, 0
	for iter := 0; iter < 20; iter++ {
		nw := bench.RandomNetwork(rng, 4+rng.Intn(6))
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), rng.Int63())
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), rng.Int63())

		pre := Check(nw, att.Circuit, spec)
		rep, err := core.Secure(nw, att.Circuit, att.Internal, spec, core.Options{Mode: dep.Exact})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if rep.InsecureLogic {
			// The independent checker must also find a flow, and one
			// not using scan wiring (within a fixed-infrastructure
			// reachability or circuit-only path).
			if pre.Secure {
				t.Fatalf("iter %d: analysis says insecure logic, verifier says secure", iter)
			}
			continue
		}
		if rep.ViolatingRegsBefore > 0 && pre.Secure {
			// The analysis found violations the checker cannot see only
			// if they involve bridged internals — which the checker
			// covers too, so this must not happen.
			t.Fatalf("iter %d: analysis found violations, verifier none", iter)
		}
		if !pre.Secure {
			confirmedInsecure++
		}
		post := Check(nw, att.Circuit, spec)
		if !post.Secure {
			var sb strings.Builder
			for _, f := range post.Counterexamples {
				sb.WriteString(f.String() + "\n")
			}
			t.Fatalf("iter %d: secured network failed verification:\n%s", iter, sb.String())
		}
		secured++
	}
	if secured < 8 || confirmedInsecure < 3 {
		t.Fatalf("weak coverage: %d secured, %d confirmed insecure", secured, confirmedInsecure)
	}
}

func TestInsecureLogicAgreement(t *testing.T) {
	e := paperex.New()
	// Circuit-only leak.
	e.Circuit.SetFFInput(e.F[6], e.Circuit.FFs[e.F[1]].Node)
	res := Check(e.Network, e.Circuit, e.Spec)
	if res.Secure {
		t.Fatal("verifier must find the circuit-only leak")
	}
	found := false
	for _, f := range res.Counterexamples {
		if f.Src == e.Crypto && f.Dst == e.Untrusted && !f.UsesScanWiring {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a wiring-free crypto->untrusted flow: %v", res.Counterexamples)
	}
}

func TestSecureSpecTriviallyPasses(t *testing.T) {
	e := paperex.New()
	spec := secspec.New(len(e.Circuit.Modules), 4) // unrestricted
	res := Check(e.Network, e.Circuit, spec)
	if !res.Secure || len(res.Counterexamples) != 0 {
		t.Fatal("unrestricted spec cannot be violated")
	}
}

func TestBruteFunctionalMatchesSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 15; iter++ {
		g := bench.RandomNetwork(rng, 3)
		att := bench.AttachCircuit(g, bench.DefaultCircuitConfig(), rng.Int63())
		n := att.Circuit
		e := newConeEval(n)
		for b := 0; b < n.NumFFs(); b++ {
			root := n.FFs[b].D
			_, leaves := n.Cone(root)
			if len(leaves) > maxExhaustiveLeaves {
				continue
			}
			for _, a := range n.SupportFFs(root) {
				brute := e.functional(root, n.FFs[a].Node, leaves)
				satr := dep.FunctionalDepends(n, root, n.FFs[a].Node)
				if brute != satr {
					t.Fatalf("iter %d: brute=%v sat=%v for ff %d on %d", iter, brute, satr, b, a)
				}
			}
		}
	}
}
