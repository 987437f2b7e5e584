// Package dep computes the fine-granular data dependencies over circuit
// logic that drive the secure-data-flow method (Section III-A of the
// paper, based on the SAT-based dependency computation of Soeken et al.,
// HVC 2016).
//
// Dependencies are classified on the three-valued lattice
// none < structural < path:
//
//   - a flip-flop b is 1-cycle functionally dependent on a if data can
//     actually propagate from a to b in one cycle: decided exactly from
//     the truth table of b's next-state cone when the cone has at most
//     truthMaxLeaves live leaves, otherwise by SAT on the cone's
//     cofactor miter after a random-simulation prefilter;
//   - b is only structurally dependent on a if a feeds b's next-state
//     cone but no value change can propagate (e.g. masked by a
//     reconvergence);
//   - b is path-dependent on a if a chain of 1-cycle functional
//     dependencies leads from a to b (multi-cycle closure).
//
// Two feasibility subroutines of the paper are implemented here:
// bridging over internal flip-flops (eliminating flip-flops not
// connected to the scan infrastructure before the cubic multi-cycle
// closure) and, for the scan-register chains themselves, presetting
// (handled by the hybrid analysis when composing the combined graph).
package dep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Kind is a dependency classification.
type Kind uint8

// Dependency kinds, ordered none < structural < path.
const (
	None Kind = iota
	Structural
	Path
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Structural:
		return "structural"
	case Path:
		return "path"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Combine composes two dependencies along a path: the result is Path
// only if both links are Path, None if either is None, and Structural
// otherwise.
func Combine(a, b Kind) Kind {
	if a == None || b == None {
		return None
	}
	if a == Path && b == Path {
		return Path
	}
	return Structural
}

// Max aggregates two dependencies over alternative paths.
func Max(a, b Kind) Kind {
	if a > b {
		return a
	}
	return b
}

// Mode selects how 1-cycle dependencies are classified.
type Mode uint8

const (
	// Exact distinguishes functional from only-structural dependencies
	// with SAT (the proposed method).
	Exact Mode = iota
	// StructuralApprox over-approximates path-dependency by structural
	// dependency (Section IV-C): no SAT calls, every structural
	// dependency is treated as functional.
	StructuralApprox
)

func (m Mode) String() string {
	if m == Exact {
		return "exact"
	}
	return "structural-approx"
}

// ParseMode reads a mode as the command lines and request bodies spell
// it: "exact" (also the empty default) or "structural".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return Exact, nil
	case "structural":
		return StructuralApprox, nil
	}
	return Exact, fmt.Errorf("unknown mode %q (want exact or structural)", s)
}

// Matrix is a dependency relation over flip-flops 0..n-1. Entry (i, j)
// means "i depends on j", i.e. data flows from j to i. Each relation is
// a dense bit matrix whose rows share one allocation, and the entry
// counts are kept as entries are set and cleared.
type Matrix struct {
	n    int
	path []bitset.Set // path[i]: j such that i path-depends on j
	str  []bitset.Set // str[i] ⊇ path[i]: structural dependency
	// rstr[j]: i such that i depends on j, the dependents Bridge
	// visits. A closure matrix has none and is read-only.
	rstr        []bitset.Set
	npath, nstr int // entry counts of path and str
}

// NewMatrix returns an empty dependency matrix over n flip-flops.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, path: bitset.Rows(n, n), str: bitset.Rows(n, n), rstr: bitset.Rows(n, n)}
}

// N returns the number of flip-flops indexed.
func (m *Matrix) N() int { return m.n }

// Set raises the dependency of i on j to at least k. It panics on a
// closure matrix, which is read-only.
func (m *Matrix) Set(i, j int, k Kind) {
	if k == None {
		return
	}
	if m.rstr == nil {
		panic("dep: Set on a read-only closure matrix")
	}
	if k == Path && !m.path[i].Has(j) {
		m.path[i].Set(j)
		m.npath++
	}
	if !m.str[i].Has(j) {
		m.str[i].Set(j)
		m.rstr[j].Set(i)
		m.nstr++
	}
}

// Kind returns the dependency of i on j.
func (m *Matrix) Kind(i, j int) Kind {
	if m.path[i].Has(j) {
		return Path
	}
	if m.str[i].Has(j) {
		return Structural
	}
	return None
}

// clearNode removes every dependency entering or leaving node k.
func (m *Matrix) clearNode(k int) {
	m.npath -= m.path[k].Count()
	m.nstr -= m.str[k].Count()
	m.str[k].ForEach(func(j int) { m.rstr[j].Clear(k) })
	// A self-loop's reverse bit went with row k above, so i != k here.
	m.rstr[k].ForEach(func(i int) {
		if m.path[i].Has(k) {
			m.path[i].Clear(k)
			m.npath--
		}
		m.str[i].Clear(k)
		m.nstr--
	})
	m.path[k].Reset()
	m.str[k].Reset()
	m.rstr[k].Reset()
}

// CountDeps returns the number of denoted dependencies (non-None
// entries).
func (m *Matrix) CountDeps() int { return m.nstr }

// CountPath returns the number of Path entries.
func (m *Matrix) CountPath() int { return m.npath }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	cp := *m
	cp.path, cp.str = cloneRows(m.path), cloneRows(m.str)
	if m.rstr != nil {
		cp.rstr = cloneRows(m.rstr)
	}
	return &cp
}

// cloneRows copies a relation's rows into a fresh slab.
func cloneRows(rows []bitset.Set) []bitset.Set {
	out := bitset.Rows(len(rows), len(rows))
	for i := range rows {
		out[i].Copy(&rows[i])
	}
	return out
}

// Equal reports whether the two matrices denote exactly the same
// dependencies (same size, same path and structural entries).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i := 0; i < m.n; i++ {
		if !m.path[i].Equal(&o.path[i]) || !m.str[i].Equal(&o.str[i]) {
			return false
		}
	}
	return true
}

// DependsOn returns the set of j on which i depends (structurally or
// more). The returned set is live; do not modify it.
func (m *Matrix) DependsOn(i int) *bitset.Set { return &m.str[i] }

// PathDependsOn returns the set of j on which i path-depends.
// The returned set is live; do not modify it.
func (m *Matrix) PathDependsOn(i int) *bitset.Set { return &m.path[i] }

// PathCSR returns the path relation as a graph whose row i lists,
// ascending, the j on which i path-depends.
func (m *Matrix) PathCSR() graph.CSR { return rowsCSR(m.path, m.npath) }

// rowsCSR copies a relation with the given entry count into CSR form.
func rowsCSR(rows []bitset.Set, entries int) graph.CSR {
	return graph.FromRows(len(rows), entries, func(i int, dst []int32) []int32 { return rows[i].AppendTo(dst) })
}

// Stats reports the bookkeeping of one dependency computation.
type Stats struct {
	Mode             Mode
	SATCalls         int
	SimResolved      int   // 1-cycle dependencies decided by simulation, functional or structural (no SAT call)
	SimLanes         int64 // 64-bit pattern lanes evaluated by simulation
	Functional1Cycle int   // 1-cycle dependencies classified functional
	StructOnly1Cycle int   // 1-cycle dependencies classified only structural
	FFsTotal         int   // flip-flops before bridging
	FFsDenoted       int   // flip-flops after bridging (denoted)
	DepsBeforeBridge int   // 1-cycle dependencies before bridging
	DepsAfterBridge  int   // dependencies after bridging, before closure
	DepsMultiCycle   int   // denoted dependencies after the closure
	ClosurePathDeps  int   // path entries after the closure
	BridgedFFs       int
}

// oneCycleEntry is one classified 1-cycle dependency of a root row.
type oneCycleEntry struct {
	leaf netlist.FFID
	kind Kind
}

// oneCycleRow is the result of one root's unit of work, merged into the
// matrix by the calling goroutine in row order.
type oneCycleRow struct {
	entries                          []oneCycleEntry
	satCalls, functional, structOnly int
	simResolved                      int
	simLanes                         int64
	decisions, conflicts             int64
}

// add records one classified dependency of the row's root.
func (r *oneCycleRow) add(leaf netlist.FFID, kind Kind) {
	if kind == Path {
		r.functional++
	} else {
		r.structOnly++
	}
	r.entries = append(r.entries, oneCycleEntry{leaf, kind})
}

// supportLeaf is a flip-flop leaf of a root's cone.
type supportLeaf struct {
	ff netlist.FFID
	li int // index into the cone's leaves
}

// oneCycleScratch is one 1-cycle worker's reusable state. Every root
// the worker classifies walks, simulates and encodes its cone in these
// buffers, so after warm-up a root allocates nothing but its result
// row. Reuse cannot change a result: the querier's solver is Reset to
// the state New returns before each encoding, and every buffer is
// cleared or overwritten before it is read.
type oneCycleScratch struct {
	q         *ConeQuerier // owns the cone walker and the solver
	sc        simCone
	support   []supportLeaf
	testIdx   []int
	decided   []Kind // per leaf
	queryable []bool // per leaf
}

// OneCycleConfig tunes the exact-mode 1-cycle computation; the zero
// value is the default tuning.
type OneCycleConfig struct {
	// DisableSimFilter turns off simulation — the truth-table decision
	// of small cones and the random prefilter of larger ones — forcing
	// every exact-mode classification through a SAT cofactor query
	// (the all-SAT reference the differential tests compare against).
	DisableSimFilter bool
}

// FillOneCycleCfg writes the circuit's 1-cycle dependencies into an
// existing matrix whose indices 0..NumFFs-1 are the circuit flip-flops.
// The matrix may be larger than the circuit (a combined index space
// with scan flip-flops appended, as the hybrid analysis builds). In
// Exact mode every structural dependency is classified functional or
// only structural; in StructuralApprox mode structural implies path.
//
// The per-root units of work — extract the root's fan-in cone once,
// compile it to a word program that decides its support leaves by
// truth table (small cones) or random prefilter (larger ones), encode
// the shared miter copy once for whatever simulation left undecided,
// classify those leaves through an incremental ConeQuerier — fan out
// over a worker pool of opts.WorkerCount() goroutines. Rows are merged
// back into the matrix in root order on the calling goroutine, so
// exact-mode results are bit-identical to the sequential computation,
// and Stats counters are folded without races.
// Cancellation is honored between SAT queries; on cancellation the
// matrix is left untouched and the context error is returned.
func FillOneCycleCfg(m *Matrix, n *netlist.Netlist, mode Mode, stats *Stats, opts engine.Options, cfg OneCycleConfig) error {
	if m.N() < n.NumFFs() {
		panic("dep: matrix smaller than circuit")
	}
	stage := opts.Begin("one-cycle")
	defer stage.End()
	useSim := mode == Exact && !cfg.DisableSimFilter

	// The units of work: flip-flops with a driven next-state cone.
	var jobs []int
	for b := range n.FFs {
		if n.FFs[b].D != netlist.NoNode {
			jobs = append(jobs, b)
		}
	}
	if len(jobs) == 0 {
		opts.Logf("one-cycle: 0 roots")
		return opts.Err()
	}
	workers := opts.WorkerCount()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	stage.SetAttrs(obs.Int("roots", int64(len(jobs))), obs.Int("workers", int64(workers)))
	queryOpts := stage.Options()

	// Solver-level metrics: per-query SAT latency and cumulative
	// decision/conflict counts, live on the stats registry.
	reg := opts.Registry()
	satLatency := reg.Histogram("dep_sat_query_seconds")
	satQueries := reg.Counter("dep_sat_queries_total")
	satDecisions := reg.Counter("dep_sat_decisions_total")
	satConflicts := reg.Counter("dep_sat_conflicts_total")
	simResolved := reg.Counter("dep_sim_resolved_total")
	simLanes := reg.Counter("dep_sim_lanes_total")

	ctx := opts.Ctx()
	rows := make([]oneCycleRow, len(jobs))
	var next atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := oneCycleScratch{q: NewQuerier(n)}
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(jobs) || cancelled.Load() {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				b := jobs[idx]
				root := n.FFs[b].D
				row := &rows[idx]
				// One cone walk serves the support computation, the
				// simulation and (if needed) the miter encoding.
				gates, leaves := ws.q.w.Walk(root)
				support := ws.support[:0]
				for li, l := range leaves {
					if ff := n.FFOfNode(l); ff != netlist.NoFF {
						support = append(support, supportLeaf{ff, li})
					}
				}
				ws.support = support
				row.entries = make([]oneCycleEntry, 0, len(support))
				// One query span per root's cone — the high-frequency
				// level of the trace hierarchy, subject to sampling.
				qspan := queryOpts.StartSpan("query", obs.Int("root_ff", int64(b)))
				if mode == StructuralApprox {
					for _, sl := range support {
						row.entries = append(row.entries, oneCycleEntry{sl.ff, Path})
					}
					qspan.End()
					continue
				}
				// Simulation settles what it can without a SAT call:
				// decided[li] is Path when flipping leaf li provably
				// flips the root, Structural when it provably never
				// does, None when only the miter can tell. Constants are
				// never support leaves, so every tested leaf has a live
				// slot.
				var decided []Kind
				if useSim && len(support) > 0 {
					// A child of the root's query span: simulation's
					// share of the root's time.
					sim := queryOpts.WithParent(qspan).Begin("sim-filter")
					if sc := &ws.sc; sc.compile(n, ws.q.w, root, gates, leaves) {
						testIdx := ws.testIdx[:0]
						for _, sl := range support {
							testIdx = append(testIdx, sl.li)
						}
						ws.testIdx = testIdx
						decided = grow(ws.decided, len(leaves))
						ws.decided = decided
						for k, kind := range sc.classify(testIdx) {
							if kind != None {
								decided[testIdx[k]] = kind
								row.simResolved++
							}
						}
						row.simLanes = 64 * sc.evals
						sim.AddQueries(int64(len(support)))
						sim.AddItems(row.simLanes)
						sim.AddSaved(int64(row.simResolved))
					}
					sim.End()
				}
				// Whatever simulation left undecided goes through the
				// exact cofactor miter; the CNF encoding is only built if
				// some leaf needs it.
				q, encoded := ws.q, false
				for _, sl := range support {
					if decided != nil && decided[sl.li] != None {
						row.add(sl.ff, decided[sl.li])
						continue
					}
					if ctx.Err() != nil {
						cancelled.Store(true)
						qspan.End()
						return
					}
					if !encoded {
						// Only the undecided support leaves are ever
						// queried — the miter encoding collapses around
						// them (hard-shared leaves, single-copy gates).
						var queryable []bool
						if decided != nil {
							queryable = grow(ws.queryable, len(leaves))
							ws.queryable = queryable
							for _, s2 := range support {
								if decided[s2.li] == None {
									queryable[s2.li] = true
								}
							}
						}
						q.encode(root, gates, leaves, queryable)
						encoded = true
					}
					row.satCalls++
					var functional bool
					if satLatency != nil {
						t0 := time.Now()
						functional = q.Depends(n.FFs[sl.ff].Node)
						satLatency.Observe(time.Since(t0).Seconds())
					} else {
						functional = q.Depends(n.FFs[sl.ff].Node)
					}
					// Per-query deltas, not solver-lifetime totals, so
					// span attributes and counters attribute conflicts
					// to the queries that caused them.
					d := q.QueryStats()
					row.decisions += d.Decisions
					row.conflicts += d.Conflicts
					if functional {
						row.add(sl.ff, Path)
					} else {
						row.add(sl.ff, Structural)
					}
				}
				satQueries.Add(int64(row.satCalls))
				satDecisions.Add(row.decisions)
				satConflicts.Add(row.conflicts)
				simResolved.Add(int64(row.simResolved))
				simLanes.Add(row.simLanes)
				qspan.SetAttrs(obs.Int("sat_queries", int64(row.satCalls)),
					obs.Int("sim_resolved", int64(row.simResolved)),
					obs.Int("decisions", row.decisions), obs.Int("conflicts", row.conflicts))
				qspan.End()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Deterministic row-ordered merge.
	satCalls, simSolved := 0, 0
	for idx, b := range jobs {
		row := &rows[idx]
		for _, e := range row.entries {
			m.Set(b, int(e.leaf), e.kind)
		}
		stats.SATCalls += row.satCalls
		stats.SimResolved += row.simResolved
		stats.SimLanes += row.simLanes
		stats.Functional1Cycle += row.functional
		stats.StructOnly1Cycle += row.structOnly
		satCalls += row.satCalls
		simSolved += row.simResolved
	}
	stage.AddQueries(int64(satCalls))
	stage.SetAttrs(obs.Int("sat_queries", int64(satCalls)), obs.Int("sim_resolved", int64(simSolved)))
	opts.Logf("one-cycle: %d roots, %d SAT queries (%d sim-resolved) over %d workers",
		len(jobs), satCalls, simSolved, workers)
	return nil
}

// Bridge eliminates the given internal flip-flops from the matrix, one
// at a time (Figure 3): for every predecessor j and dependent i of an
// internal flip-flop k, the dependency of i on j is raised to
// Combine(dep(i,k), dep(k,j)); afterwards k carries no dependencies.
// Bridge modifies m in place.
//
// Each dependent's rows are updated a word at a time. Combine is Path
// only for two Path links and Structural for any other pair of
// dependencies, so the raise is str[i] |= str[k], plus path[i] |=
// path[k] when i path-depends on k. Bit k itself adds nothing — it is
// in str[i], and in path[i] whenever path[k] is merged — so k's
// self-loop never strengthens a bridged dependency. Only the newly set
// bits touch the reverse rows and the counts.
func Bridge(m *Matrix, internal []netlist.FFID) {
	for _, kf := range internal {
		k := int(kf)
		sk, pk := &m.str[k], &m.path[k]
		m.rstr[k].ForEach(func(i int) {
			if i == k {
				return
			}
			m.nstr += m.str[i].OrNew(sk, func(j int) { m.rstr[j].Set(i) })
			if m.path[i].Has(k) {
				m.npath += m.path[i].OrNew(pk, nil)
			}
		})
		m.clearNode(k)
	}
}
