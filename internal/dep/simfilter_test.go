package dep

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// TestSimFilterMatchesPureSAT is the prefilter's differential gate:
// exact-mode matrices with the simulation prefilter enabled must be
// bit-identical to the pure-SAT path at every worker count. The pure
// path (DisableSimFilter) also uses the unrestricted miter encoding,
// so this covers both the prefilter's verdicts and the restricted
// encoding built around them.
func TestSimFilterMatchesPureSAT(t *testing.T) {
	for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
		t.Run(name, func(t *testing.T) {
			n := catalogCircuit(t, name, 0.15, 7)
			pure := NewMatrix(n.NumFFs())
			var pureStats Stats
			err := FillOneCycleCfg(pure, n, Exact, &pureStats, engine.Options{Workers: 2},
				OneCycleConfig{DisableSimFilter: true})
			if err != nil {
				t.Fatal(err)
			}
			if pureStats.SimResolved != 0 || pureStats.SimLanes != 0 {
				t.Fatalf("disabled prefilter still recorded sim work: %+v", pureStats)
			}
			for _, workers := range []int{1, 3, 8} {
				filt := NewMatrix(n.NumFFs())
				var filtStats Stats
				err := FillOneCycleCfg(filt, n, Exact, &filtStats, engine.Options{Workers: workers}, OneCycleConfig{})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !filt.Equal(pure) {
					t.Fatalf("workers=%d: prefiltered matrix differs from pure-SAT matrix", workers)
				}
				// Every leaf is classified exactly once, by simulation or
				// by SAT; the split must be worker-count independent.
				if filtStats.SATCalls+filtStats.SimResolved != pureStats.SATCalls {
					t.Fatalf("workers=%d: SAT %d + sim %d != pure SAT %d", workers,
						filtStats.SATCalls, filtStats.SimResolved, pureStats.SATCalls)
				}
				if filtStats.Functional1Cycle != pureStats.Functional1Cycle ||
					filtStats.StructOnly1Cycle != pureStats.StructOnly1Cycle {
					t.Fatalf("workers=%d: classification counts diverge: %+v vs %+v",
						workers, filtStats, pureStats)
				}
				if filtStats.SimResolved == 0 {
					t.Fatalf("workers=%d: prefilter witnessed nothing on %s", workers, name)
				}
			}
		})
	}
}

// TestSimFilterRandomCircuits widens the differential over generated
// circuits of varying shape and checks worker-count determinism of the
// sim/SAT split (the per-root RNG stream depends only on the root).
func TestSimFilterRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c"}, 4), seed)
		pure := NewMatrix(g.N.NumFFs())
		var pureStats Stats
		if err := FillOneCycleCfg(pure, g.N, Exact, &pureStats, engine.Options{Workers: 3},
			OneCycleConfig{DisableSimFilter: true}); err != nil {
			t.Fatal(err)
		}
		var firstSim int
		for _, workers := range []int{1, 4} {
			filt := NewMatrix(g.N.NumFFs())
			var filtStats Stats
			if err := FillOneCycleCfg(filt, g.N, Exact, &filtStats, engine.Options{Workers: workers}, OneCycleConfig{}); err != nil {
				t.Fatal(err)
			}
			if !filt.Equal(pure) {
				t.Fatalf("seed %d workers %d: matrices differ", seed, workers)
			}
			if workers == 1 {
				firstSim = filtStats.SimResolved
			} else if filtStats.SimResolved != firstSim {
				t.Fatalf("seed %d: sim-resolved differs by worker count: %d vs %d",
					seed, firstSim, filtStats.SimResolved)
			}
		}
	}
}

// TestSimWitnessSoundness checks the prefilter's one-sided guarantee
// directly: every leaf it witnesses must be confirmed functional by the
// exact cofactor miter.
func TestSimWitnessSoundness(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := netlist.Generate(netlist.DefaultGenConfig([]string{"x", "y"}, 4), seed)
		n := g.N
		// One walker and one compiled cone, reused for every root.
		w := netlist.NewConeWalker(n)
		var sc simCone
		for b := range n.FFs {
			root := n.FFs[b].D
			if root == netlist.NoNode {
				continue
			}
			gates, leaves := w.Walk(root)
			if !sc.compile(n, w, root, gates, leaves) {
				continue
			}
			var testIdx []int
			for li, l := range leaves {
				if n.FFOfNode(l) != netlist.NoFF {
					testIdx = append(testIdx, li)
				}
			}
			wit := sc.filter(testIdx)
			for k, li := range testIdx {
				if wit[k] && !FunctionalDepends(n, root, leaves[li]) {
					t.Fatalf("seed %d root %d: sim witnessed leaf %d but SAT says not functional",
						seed, root, leaves[li])
				}
			}
		}
	}
}

// TestSimConeAgreesWithEvalGate cross-checks the word evaluator against
// the scalar netlist evaluator on random leaf assignments.
func TestSimConeAgreesWithEvalGate(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := netlist.Generate(netlist.DefaultGenConfig([]string{"p", "q"}, 3), seed)
		n := g.N
		// One walker and one compiled cone, reused for every root.
		w := netlist.NewConeWalker(n)
		var sc simCone
		for b := range n.FFs {
			root := n.FFs[b].D
			if root == netlist.NoNode || n.Nodes[root].Kind != netlist.KindGate {
				continue
			}
			gates, leaves := w.Walk(root)
			if !sc.compile(n, w, root, gates, leaves) {
				continue
			}
			// Assign lane-0 bits and compare against scalar evaluation.
			rng := splitmix64(uint64(seed)*977 + 13)
			vals := make(map[netlist.NodeID]bool, len(leaves)+len(gates))
			for li, l := range leaves {
				s := sc.leafSlots[li]
				switch n.Nodes[l].Kind {
				case netlist.KindConst0:
					vals[l] = false
				case netlist.KindConst1:
					vals[l] = true
				default:
					w := rng.next()
					sc.words[s] = w
					vals[l] = w&1 == 1
				}
			}
			got := sc.eval()&1 == 1
			in := make([]bool, 0, 4)
			for _, gid := range gates {
				nd := &n.Nodes[gid]
				in = in[:0]
				for _, f := range nd.Fanin {
					in = append(in, vals[f])
				}
				vals[gid] = netlist.EvalGate(nd.Gate, in)
			}
			if want := vals[root]; got != want {
				t.Fatalf("seed %d root %d: word eval %v, scalar eval %v", seed, root, got, want)
			}
		}
	}
}

// TestQueryStatsDeltas checks the per-query solver accounting: the
// deltas reported after each Depends call must sum to the querier's
// cumulative SolverStats, and no delta may be negative.
func TestQueryStatsDeltas(t *testing.T) {
	n := catalogCircuit(t, "BasicSCB", 0.15, 7)
	checked := 0
	for b := range n.FFs {
		root := n.FFs[b].D
		if root == netlist.NoNode {
			continue
		}
		q := NewConeQuerier(n, root)
		sum := q.QueryStats() // construction may propagate; fold it in
		for _, a := range q.SupportFFs() {
			q.Depends(n.FFs[a].Node)
			d := q.QueryStats()
			if d.Decisions < 0 || d.Conflicts < 0 || d.Propagations < 0 {
				t.Fatalf("negative per-query delta: %+v", d)
			}
			sum.Decisions += d.Decisions
			sum.Conflicts += d.Conflicts
			sum.Propagations += d.Propagations
			checked++
		}
		total := q.SolverStats()
		if sum.Decisions != total.Decisions || sum.Conflicts != total.Conflicts ||
			sum.Propagations != total.Propagations {
			t.Fatalf("root %d: query deltas %+v do not sum to cumulative %+v", root, sum, total)
		}
	}
	if checked == 0 {
		t.Fatal("no queries exercised")
	}
}
