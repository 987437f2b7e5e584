// Sparse multi-cycle closure: Tarjan SCC condensation followed by
// reverse-topological bitset row unions.
//
// The dense Warshall closure (the test-only reference) is cubic in the
// matrix dimension regardless of how sparse the dependency graph is.
// After bridging the graph is sparse and almost acyclic — register
// chains and capture/update couplings produce long DAG-like strands
// with small cycles — so the condensation is near-linear: every
// strongly connected component's closure row is the union of its
// successors' rows and acyclic singleton successors (plus its own
// members when the component is cyclic), and Tarjan emits components
// in reverse topological order, meaning every successor is finished
// before its predecessors start. Components on the same topological
// level are independent and fan out over the engine worker
// pool; unions of bit sets are commutative and each component writes
// only its own rows, so results are bit-identical to the sequential
// computation — and to the Warshall reference — at any worker count
// (TestSCCClosureMatchesWarshall checks this differentially).

package dep

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
)

// ClosureOpts returns the multi-cycle dependency closure of m under an
// engine configuration: the transitive closure of path edges and,
// independently, of structural edges (a chain containing any
// only-structural link is structural). path is m's path relation as
// m.PathCSR returns it; a caller that already holds that snapshot
// passes it, so it is built once. The closure is a new, read-only
// matrix without reverse rows; m is left untouched. Cancellation is
// honored between topological levels, returning the context error. The
// stage "closure" items counter receives the number of condensed
// components.
func ClosureOpts(m *Matrix, path graph.CSR, opts engine.Options) (*Matrix, error) {
	stage := opts.Begin("closure", obs.Int("nodes", int64(m.N())))
	defer stage.End()
	c := &Matrix{n: m.n}
	var ncp, ncs int
	var err error
	if c.path, c.npath, ncp, err = closedRows(path, opts); err != nil {
		return nil, err
	}
	if c.str, c.nstr, ncs, err = closedRows(rowsCSR(m.str, m.nstr), opts); err != nil {
		return nil, err
	}
	stage.AddItems(int64(ncp + ncs))
	stage.SetAttrs(obs.Int("sccs_path", int64(ncp)), obs.Int("sccs_structural", int64(ncs)))
	return c, nil
}

// closedRows returns the transitive closure of the relation g as rows
// of one fresh slab, with its entry count and the number of strongly
// connected components of g.
func closedRows(g graph.CSR, opts engine.Options) ([]bitset.Set, int, int, error) {
	n := g.Len()
	comp, members, start := tarjanSCC(&g)
	nc := len(start) - 1

	// Condensation metadata: cyclic flag, deduped successor components
	// (flat, succ[succStart[c]:succStart[c+1]]) and topological level
	// per component. Tarjan's emission order is reverse topological —
	// for every cross edge C -> C', C' is emitted before C — so one pass
	// in emission order sees successors finished.
	cyclic := make([]bool, nc)
	succStart := make([]int32, nc+1)
	var succ []int32
	level := make([]int32, nc)
	maxLevel := int32(0)
	stamp := make([]int32, nc)
	for i := range stamp {
		stamp[i] = -1
	}
	for c := 0; c < nc; c++ {
		ms := members[start[c]:start[c+1]]
		cyclic[c] = len(ms) > 1
		lv := int32(0)
		for _, u := range ms {
			for _, w := range g.Row(int(u)) {
				cw := comp[w]
				if cw == int32(c) {
					if w == u {
						cyclic[c] = true // self-loop
					}
					continue
				}
				if stamp[cw] != int32(c) {
					stamp[cw] = int32(c)
					succ = append(succ, cw)
					lv = max(lv, level[cw]+1)
				}
			}
		}
		succStart[c+1] = int32(len(succ))
		level[c] = lv
		maxLevel = max(maxLevel, lv)
	}
	// Components by level, each level in emission order (a counting sort).
	levelStart := make([]int32, maxLevel+2)
	for _, lv := range level {
		levelStart[lv+1]++
	}
	for lv := int32(0); lv <= maxLevel; lv++ {
		levelStart[lv+1] += levelStart[lv]
	}
	byLevel := make([]int32, nc)
	fill := append([]int32(nil), levelStart[:maxLevel+1]...)
	for c, lv := range level {
		byLevel[fill[lv]] = int32(c)
		fill[lv]++
	}

	// Reverse-topological row unions, level by level. A component's row
	// is the union of its successors' rows, plus each successor's own
	// node when it is an acyclic singleton (a cyclic successor's row
	// holds its members already), plus its own members when it is
	// cyclic (a node on a cycle reaches itself). Every member gets that
	// row, and the row's entries are counted as it is built.
	// Components of one level are independent — each writes only its own
	// members' rows and reads rows of lower levels — so a level fans out
	// over the worker pool with a barrier in between, and the unions
	// commute, keeping results bit-identical at any worker count.
	rows := bitset.Rows(n, n)
	process := func(c int32) int {
		ms := members[start[c]:start[c+1]]
		row := &rows[ms[0]]
		cnt := 0
		for _, s := range succ[succStart[c]:succStart[c+1]] {
			rep := int(members[start[s]])
			cnt += row.OrNew(&rows[rep], nil)
			if !cyclic[s] && !row.Has(rep) {
				row.Set(rep)
				cnt++
			}
		}
		if cyclic[c] {
			for _, u := range ms {
				if !row.Has(int(u)) {
					row.Set(int(u))
					cnt++
				}
			}
		}
		for _, u := range ms[1:] {
			rows[u].Copy(row)
		}
		return cnt * len(ms)
	}
	workers := opts.WorkerCount()
	ctx := opts.Ctx()
	entries := 0
	for lv := int32(0); lv <= maxLevel; lv++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		bucket := byLevel[levelStart[lv]:levelStart[lv+1]]
		w := min(workers, len(bucket))
		if w <= 1 {
			for _, c := range bucket {
				entries += process(c)
			}
			continue
		}
		var next, total atomic.Int64
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sum := 0
				for {
					idx := int(next.Add(1)) - 1
					if idx >= len(bucket) {
						break
					}
					sum += process(bucket[idx])
				}
				total.Add(int64(sum))
			}()
		}
		wg.Wait()
		entries += int(total.Load())
	}
	return rows, entries, nc, nil
}

// tarjanSCC computes the strongly connected components of g,
// iteratively (no recursion — register chains make paths thousands of
// nodes long). It returns the component id per node and the members of
// component c as members[start[c]:start[c+1]], in reverse topological
// emission order: every component is emitted after all components
// reachable from it.
func tarjanSCC(g *graph.CSR) (comp, members, start []int32) {
	n := g.Len()
	comp = make([]int32, n)
	members = make([]int32, 0, n)
	start = []int32{0}
	index := make([]int32, n) // 0 = unvisited, otherwise discovery index + 1
	low := make([]int32, n)
	onStack := make([]bool, n)
	sccStack := make([]int32, 0, 64)
	var counter int32 = 1

	type frame struct {
		v  int32
		si int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		index[root] = counter
		low[root] = counter
		counter++
		sccStack = append(sccStack, int32(root))
		onStack[root] = true
		dfs = append(dfs[:0], frame{int32(root), 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			if row := g.Row(int(v)); f.si < len(row) {
				w := row[f.si]
				f.si++
				if index[w] == 0 {
					index[w] = counter
					low[w] = counter
					counter++
					sccStack = append(sccStack, w)
					onStack[w] = true
					dfs = append(dfs, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			if low[v] == index[v] {
				c := int32(len(start) - 1)
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					comp[w] = c
					members = append(members, w)
					if w == v {
						break
					}
				}
				start = append(start, int32(len(members)))
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := &dfs[len(dfs)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp, members, start
}
