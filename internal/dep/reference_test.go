package dep

import (
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// Reference computations the tests check the pipeline's entry points
// against, and thin wrappers that run those entry points under the
// default engine configuration.

// oneCycleMatrix returns the circuit's 1-cycle dependency matrix.
func oneCycleMatrix(n *netlist.Netlist, mode Mode, stats *Stats) *Matrix {
	m := NewMatrix(n.NumFFs())
	// The background context never cancels, so the error is always nil.
	_ = FillOneCycleCfg(m, n, mode, stats, engine.Options{}, OneCycleConfig{})
	return m
}

// closure returns the multi-cycle closure of m.
func closure(m *Matrix) *Matrix {
	c, _ := ClosureOpts(m, m.PathCSR(), engine.Options{})
	return c
}

// computeResult is the outcome of compute: the multi-cycle dependency
// matrix over denoted flip-flops.
type computeResult struct {
	// M is the multi-cycle dependency closure. Rows/columns of bridged
	// (internal) flip-flops are empty.
	M *Matrix
	// OneCycle is the 1-cycle matrix before bridging.
	OneCycle *Matrix
	// Denoted[f] reports whether flip-flop f survived bridging.
	Denoted []bool
	Stats   Stats
}

// Kind returns the multi-cycle dependency of flip-flop i on j. Both
// must be denoted.
func (r *computeResult) Kind(i, j netlist.FFID) Kind { return r.M.Kind(int(i), int(j)) }

// compute runs the full data-flow analysis of Section III-A over the
// circuit through the census: 1-cycle dependencies, bridging over the
// internal flip-flops, and the multi-cycle closure on the reduced
// (denoted) set.
func compute(n *netlist.Netlist, internal []netlist.FFID, mode Mode) *computeResult {
	st := Stats{Mode: mode, FFsTotal: n.NumFFs()}
	one := oneCycleMatrix(n, mode, &st)
	// The background context never cancels, so the error is always nil.
	c, _ := NewCensus(one.Clone(), internal, st, engine.Options{})
	res := &computeResult{M: c.Clo, OneCycle: one, Stats: c.Stats}
	res.Denoted = make([]bool, n.NumFFs())
	for i := range res.Denoted {
		res.Denoted[i] = true
	}
	for _, k := range internal {
		res.Denoted[k] = false
	}
	return res
}

// bridgeReference bridges pair by pair, as Figure 3 states it — the
// reference TestBridgeMatchesReference checks Bridge against: for every
// dependent i and predecessor j of k (self-loops skipped), the
// dependency of i on j is raised to Combine(dep(i,k), dep(k,j)). The
// dependents are found by scanning column k, and the entry counts are
// recounted afresh at the end.
func bridgeReference(m *Matrix, internal []netlist.FFID) {
	for _, kf := range internal {
		k := int(kf)
		type edge struct {
			node int
			kind Kind
		}
		var preds, dependents []edge
		m.str[k].ForEach(func(j int) {
			if j != k {
				preds = append(preds, edge{j, m.Kind(k, j)})
			}
		})
		for i := 0; i < m.n; i++ {
			if i != k && m.str[i].Has(k) {
				dependents = append(dependents, edge{i, m.Kind(i, k)})
			}
		}
		for _, d := range dependents {
			for _, p := range preds {
				k2 := Combine(d.kind, p.kind)
				if k2 != None && m.Kind(d.node, p.node) < k2 {
					m.Set(d.node, p.node, k2)
				}
			}
		}
		// Remove every dependency entering or leaving k.
		for i := 0; i < m.n; i++ {
			m.path[i].Clear(k)
			m.str[i].Clear(k)
		}
		m.path[k].Reset()
		m.str[k].Reset()
	}
	recount(m)
}

// recount recomputes the entry counts of a matrix whose rows were
// rewritten in place.
func recount(m *Matrix) {
	m.npath, m.nstr = popcount(m.path), popcount(m.str)
}

// popcount returns the number of entries of a relation, counted afresh.
func popcount(rows []bitset.Set) int {
	c := 0
	for i := range rows {
		c += rows[i].Count()
	}
	return c
}

// closureWarshall is the dense bit-parallel Warshall closure, in place
// — cubic in the matrix dimension regardless of sparsity. It is the
// reference for the SCC closure (TestSCCClosureMatchesWarshall) and
// the benchmark baseline.
func closureWarshall(m *Matrix) {
	warshall := func(rows []bitset.Set) {
		n := len(rows)
		for k := 0; k < n; k++ {
			rk := &rows[k]
			if !rk.Any() {
				continue
			}
			for i := 0; i < n; i++ {
				if i != k && rows[i].Has(k) {
					rows[i].Or(rk)
				}
			}
		}
	}
	warshall(m.path)
	warshall(m.str)
	recount(m)
}

// closureK computes the k-cycle-bounded dependency relation in place:
// entry (i, j) is set when a dependency chain of at most k 1-cycle
// links leads from j to i (the bounded variant of the HVC 2016
// iterative computation; the closure is the k → ∞ fixpoint). k <= 1
// leaves the matrix unchanged.
func closureK(m *Matrix, k int) {
	if k <= 1 {
		return
	}
	// Relax k-1 times: D_{t+1} = D_t ∪ D_1∘D_t, each step against a
	// frozen snapshot so chains never exceed t+1 links.
	base := m.Clone()
	for step := 1; step < k; step++ {
		prev := m.Clone()
		changed := false
		for i := 0; i < m.n; i++ {
			base.path[i].ForEach(func(via int) {
				if m.path[i].Or(&prev.path[via]) {
					changed = true
				}
			})
			base.str[i].ForEach(func(via int) {
				if m.str[i].Or(&prev.str[via]) {
					changed = true
				}
			})
		}
		if !changed {
			break
		}
	}
	recount(m)
}
