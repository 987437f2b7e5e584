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
// matrix; m is left untouched. Cancellation is honored between
// topological levels, returning the context error. The stage "closure"
// items counter receives the number of condensed components. The
// closure of a path-only matrix is path-only.
func ClosureOpts(m *Matrix, path graph.CSR, opts engine.Options) (*Matrix, error) {
	stage := opts.Begin("closure", obs.Int("nodes", int64(m.N())))
	defer stage.End()
	c := &Matrix{n: m.n, closed: true}
	var ncp, ncs int
	var err error
	if c.path, c.npath, ncp, err = closedRows(path, opts); err != nil {
		return nil, err
	}
	if m.str != nil {
		if c.str, c.nstr, ncs, err = closedRows(rowsCSR(m.str, m.nstr), opts); err != nil {
			return nil, err
		}
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
	comp, members, start := g.SCC()
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
		lv, top := int32(0), -1
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
					if level[cw]+1 > lv {
						lv, top = level[cw]+1, len(succ)-1
					}
				}
			}
		}
		succStart[c+1] = int32(len(succ))
		if top >= 0 {
			// The highest-level successor last, where the union starts.
			succ[top], succ[len(succ)-1] = succ[len(succ)-1], succ[top]
		}
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
	// The union does work in proportion to what it can add. A successor
	// whose representative the row already holds is skipped: something
	// merged before reaches it, so its row is a subset by transitivity.
	// The highest-level successor goes first and the rest in reverse
	// edge order, so in a preset register chain bit j-1 covers bits
	// 0..j-2. And each row's non-zero words span [lo, hi), which bounds
	// the words a union with it reads.
	// Components of one level are independent — each writes only its own
	// members' rows and reads rows of lower levels — so a level fans out
	// over the worker pool with a barrier in between, and the unions
	// commute, keeping results bit-identical at any worker count.
	rows := bitset.Rows(n, n)
	span := make([][2]int32, nc) // per component: its row's non-zero word span [lo, hi)
	process := func(c int32) int {
		ms := members[start[c]:start[c+1]]
		row := &rows[ms[0]]
		cnt := 0
		lo, hi := int32(n), int32(0) // empty while lo >= hi
		widen := func(l, h int32) { lo, hi = min(lo, l), max(hi, h) }
		ss := succ[succStart[c]:succStart[c+1]]
		for x := len(ss) - 1; x >= 0; x-- {
			s := ss[x]
			rep := int(members[start[s]])
			if row.Has(rep) {
				continue // covered: rows[rep] ⊆ row by transitivity
			}
			if sp := span[s]; sp[0] < sp[1] {
				cnt += row.OrNewSpan(&rows[rep], int(sp[0]), int(sp[1]))
				widen(sp[0], sp[1])
			}
			if !cyclic[s] && !row.Has(rep) {
				row.Set(rep)
				cnt++
				widen(int32(rep>>6), int32(rep>>6)+1)
			}
		}
		if cyclic[c] {
			for _, u := range ms {
				if !row.Has(int(u)) {
					row.Set(int(u))
					cnt++
				}
				widen(u>>6, u>>6+1)
			}
		}
		span[c] = [2]int32{lo, hi}
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
