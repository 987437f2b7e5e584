package hybrid

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// This file keeps a from-scratch hybrid resolver as the differential
// reference for Resolve: every round propagates the whole combined
// graph, and every candidate trial is a deep clone, cut and
// reconnected, validated up front and propagated from scratch.

// refScore is one reference candidate's score.
type refScore struct {
	pin     rsn.Sink
	newSrc  rsn.Ref
	removed bool
	after   int
	muxes   int
}

// refBetter is Resolve's comparator: the targeted violation removed,
// then fewer violations after, then fewer inserted muxes.
func refBetter(s, t refScore) bool {
	if s.removed != t.removed {
		return s.removed
	}
	if s.after != t.after {
		return s.after < t.after
	}
	return s.muxes < t.muxes
}

// referenceResolve is Resolve with a full propagation per round and
// per candidate trial.
func referenceResolve(a *Analysis, nw *rsn.Network) ([]rsn.Change, error) {
	var changes []rsn.Change
	for {
		cur := a.propagate(nw)
		viols := a.violationsFrom(cur)
		if len(viols) == 0 {
			return changes, nil
		}
		if len(changes) >= maxChanges(nw) {
			return changes, fmt.Errorf("hybrid: resolution did not converge after %d changes (%d violations left)", len(changes), len(viols))
		}
		v := viols[0].Node
		u, _, hops, err := a.flowChain(nw, v, new(chainScratch))
		if err != nil {
			return changes, err
		}
		var best *refScore
		for _, h := range hops {
			pin := rsn.Sink{Elem: rsn.Reg(h.To)}
			var srcs []rsn.Ref
			for _, pr := range nw.PurePredecessors(h.To, new(rsn.Marks)) {
				if pr == h.From || !cur.attrOut[a.lastIndex(pr)].Has(a.Spec.Trust[a.regModule[h.To]]) {
					continue
				}
				if srcs = append(srcs, rsn.Reg(pr)); len(srcs) == 4 {
					break
				}
			}
			for _, src := range append(srcs, rsn.ScanIn) {
				trial := nw.Clone()
				muxes, err := trial.CutAndReconnect(pin, src)
				if err != nil || trial.Validate() != nil {
					continue
				}
				tp := a.propagate(trial)
				s := refScore{pin, src, !a.violates(tp, v), len(a.violationsFrom(tp)), muxes}
				if s.after <= len(viols) && (best == nil || refBetter(s, *best)) {
					best = &s
				}
			}
		}
		if best == nil {
			return changes, fmt.Errorf("hybrid: no valid candidate to sever flow %s -> %s", a.NodeName(u), a.NodeName(v))
		}
		oldSrc := nw.SinkSource(best.pin)
		muxes, err := nw.CutAndReconnect(best.pin, best.newSrc)
		if err != nil {
			return changes, err
		}
		changes = append(changes, rsn.Change{Cut: best.pin, OldSrc: oldSrc, NewSrc: best.newSrc, NewMuxes: muxes})
	}
}

// TestHybridResolveMatchesReference is the differential check of the
// delta-propagating resolver against the from-scratch one: on the
// catalog networks of pure's TestPureResolveMatchesReference, each
// with an attached circuit and four specifications drawn the way the
// protocol draws them, the pure-resolved network must be resolved by
// Resolve at 1 and 4 workers with the identical change list the
// reference applies. FlexScan at scale 0.01, perfbench's flexscan
// shape, is also run with the circuit attached under each of
// flexScanSeeds. Every round of both stages runs under the every-round
// oracle (checkRounds).
func TestHybridResolveMatchesReference(t *testing.T) {
	type tcase struct {
		name   string
		scale  float64
		attach int64
	}
	var cases []tcase
	for _, b := range bench.Catalog() {
		if b.Name == "FlexScan" {
			cases = append(cases, tcase{b.Name, 0.1, 1})
			for _, seed := range flexScanSeeds {
				cases = append(cases, tcase{b.Name, 0.01, seed})
			}
			continue
		}
		cases = append(cases, tcase{b.Name, b.ScaleForTarget(700), 1})
	}
	rounds := checkRounds(t)
	total := 0
	for _, c := range cases {
		b, _ := bench.ByName(c.name)
		base := b.Build(c.scale)
		att := bench.AttachCircuit(base, bench.DefaultCircuitConfig(), c.attach)
		var an *Analysis
		for seed := int64(0); seed < 4; seed++ {
			spec := secspec.GenerateWithRoles(len(base.Modules), att.DataSources, secspec.DefaultGenConfig(), seed)
			if an == nil {
				var err error
				if an, err = NewAnalysisOpts(base, att.Circuit, att.Internal, spec, dep.Exact, engine.Options{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			ctx := fmt.Sprintf("%s@%g attach %d seed %d", c.name, c.scale, c.attach, seed)
			nw := base.Clone()
			if _, err := ResolvePure(nw, spec, engine.Options{}); err != nil {
				t.Fatalf("%s: pure stage: %v", ctx, err)
			}
			refNW := nw.Clone()
			want, werr := referenceResolve(an.WithSpec(spec), refNW)
			for _, workers := range []int{1, 4} {
				run := nw.Clone()
				res, err := Resolve(an.WithSpec(spec).WithEngine(engine.Options{Workers: workers}), run)
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s workers=%d: error %v, reference %v", ctx, workers, err, werr)
				}
				if len(res.Changes) != len(want) {
					t.Fatalf("%s workers=%d: %d changes, reference %d", ctx, workers, len(res.Changes), len(want))
				}
				for i := range want {
					if res.Changes[i] != want[i] {
						t.Fatalf("%s workers=%d: change %d = %v, reference %v", ctx, workers, i, res.Changes[i], want[i])
					}
				}
				if len(run.ChangedInputs(refNW)) != 0 || len(run.Muxes) != len(refNW.Muxes) {
					t.Fatalf("%s workers=%d: resolved wirings differ", ctx, workers)
				}
			}
			total += len(want)
		}
	}
	if total == 0 {
		t.Fatal("no changes compared")
	}
	t.Logf("%d changes compared, %d rounds checked", total, *rounds)
}
