package dep

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sat"
)

// queryTrace is everything observable of one root's queries: the cone,
// the encoding's size, and each Depends answer with its QueryStats.
type queryTrace struct {
	Leaves            []netlist.NodeID
	Support           []netlist.FFID
	Vars, Clauses     int
	Answers           []bool
	Stats             []sat.Statistics
	Total             sat.Statistics
	NonQueryableFalse bool
}

// traceQueries asks q about every support leaf of its current root, in
// leaf order as the 1-cycle worker does.
func traceQueries(n *netlist.Netlist, q *ConeQuerier) queryTrace {
	tr := queryTrace{
		Leaves:  append([]netlist.NodeID(nil), q.Leaves()...),
		Support: q.SupportFFs(),
		Vars:    q.b.S.NumVars(),
		Clauses: q.b.S.NumClauses(),
	}
	tr.Stats = append(tr.Stats, q.QueryStats()) // construction may propagate
	for _, a := range tr.Support {
		tr.Answers = append(tr.Answers, q.Depends(n.FFs[a].Node))
		tr.Stats = append(tr.Stats, q.QueryStats())
	}
	tr.Total = q.SolverStats()
	return tr
}

// TestReusedQuerierMatchesFresh checks that one querier reused over
// every root — the 1-cycle worker's pattern — answers exactly as a
// fresh querier per root: same Depends answers, same per-query
// QueryStats, same encoding size. It covers the unrestricted encoding
// (Reset vs NewConeQuerier), restricted ones (encode with a random
// queryable set vs a fresh querier given the same set), and a querier
// re-aimed from circuit to circuit (aim, as pooled worker scratch is),
// larger and smaller ones alternating.
func TestReusedQuerierMatchesFresh(t *testing.T) {
	type circuit struct {
		name string
		n    *netlist.Netlist
	}
	var circuits []circuit
	for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5", "FlexScan"} {
		scale := 0.15
		if name == "FlexScan" {
			scale = 0.01
		}
		circuits = append(circuits, circuit{name, catalogCircuit(t, name, scale, 7)})
	}
	for seed := int64(0); seed < 3; seed++ {
		g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c"}, 4), seed)
		circuits = append(circuits, circuit{fmt.Sprintf("random%d", seed), g.N})
	}
	var across *ConeQuerier
	for ci, c := range circuits {
		n := c.n
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci)))
			reused := NewQuerier(n)
			restricted := NewQuerier(n)
			if across == nil {
				across = NewQuerier(n)
			}
			across.aim(n)
			if across.Depends(n.FFs[0].Node) {
				t.Fatal("re-aimed querier answers before an encoding")
			}
			roots := 0
			for b := range n.FFs {
				root := n.FFs[b].D
				if root == netlist.NoNode {
					continue
				}
				roots++
				reused.Reset(root)
				got := traceQueries(n, reused)
				want := traceQueries(n, NewConeQuerier(n, root))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("root ff %d: reused querier %+v, fresh %+v", b, got, want)
				}
				across.Reset(root)
				if got := traceQueries(n, across); !reflect.DeepEqual(got, want) {
					t.Fatalf("root ff %d: querier re-aimed across circuits %+v, fresh %+v", b, got, want)
				}

				// Restricted: a random half of the non-constant leaves
				// is queryable, as after the simulation prefilter.
				gates, leaves := restricted.w.Walk(root)
				queryable := make([]bool, len(leaves))
				for i := range queryable {
					queryable[i] = rng.Intn(2) == 0
				}
				restricted.encode(root, gates, leaves, queryable)
				fresh := NewQuerier(n)
				fg, fl := fresh.w.Walk(root)
				fresh.encode(root, fg, fl, append([]bool(nil), queryable...))
				got, want = traceQueries(n, restricted), traceQueries(n, fresh)
				for i, a := range got.Support {
					li := -1
					for j, l := range leaves {
						if l == n.FFs[a].Node {
							li = j
						}
					}
					if !queryable[li] && got.Answers[i] {
						t.Fatalf("root ff %d: non-queryable leaf %d answered functional", b, a)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("root ff %d restricted: reused querier %+v, fresh %+v", b, got, want)
				}
			}
			if roots == 0 {
				t.Fatal("no roots")
			}
		})
	}
}

// TestReusedQuerierEncodesWithoutAllocating checks the point of reuse:
// once warmed up over every root, re-aiming the querier at each root
// again allocates nothing.
func TestReusedQuerierEncodesWithoutAllocating(t *testing.T) {
	n := catalogCircuit(t, "BasicSCB", 0.15, 7)
	q := NewQuerier(n)
	aimAll := func() {
		for b := range n.FFs {
			if root := n.FFs[b].D; root != netlist.NoNode {
				q.Reset(root)
			}
		}
	}
	aimAll()
	if a := testing.AllocsPerRun(5, aimAll); a != 0 {
		t.Fatalf("re-encoding every root allocated %.1f times per pass", a)
	}
}

// TestQuerierBuildsSolverOnFirstEncoding checks that a querier owns no
// solver until its first encoding — a 1-cycle worker whose cones are all
// decided by simulation never allocates one — and reads zero solver
// counters until then.
func TestQuerierBuildsSolverOnFirstEncoding(t *testing.T) {
	n := catalogCircuit(t, "BasicSCB", 0.15, 7)
	q := NewQuerier(n)
	if q.b != nil {
		t.Fatal("NewQuerier built a solver")
	}
	if (q.SolverStats() != sat.Statistics{}) || (q.QueryStats() != sat.Statistics{}) {
		t.Fatal("solver counters non-zero before any encoding")
	}
	if q.Depends(n.FFs[0].Node) {
		t.Fatal("Depends true before any Reset")
	}
	q.Reset(n.FFs[0].D)
	if q.b == nil {
		t.Fatal("Reset left the querier without a solver")
	}
}
