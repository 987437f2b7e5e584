// Sparse multi-cycle closure: Tarjan SCC condensation followed by
// reverse-topological bitset row unions.
//
// The dense Warshall closure (the test-only reference) is cubic in the
// matrix dimension regardless of how sparse the dependency graph is.
// After bridging the graph is sparse and almost acyclic — register
// chains and capture/update couplings produce long DAG-like strands
// with small cycles — so the condensation is near-linear: every
// strongly connected component's closure row is the union of its
// successors' rows (plus its own members when the component is
// cyclic), and Tarjan emits components in reverse topological order,
// meaning every successor is finished before its predecessors start. Components on the same
// topological level are independent and fan out over the engine worker
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
	"repro/internal/obs"
)

// ClosureOpts returns the multi-cycle dependency closure of m under an
// engine configuration: the transitive closure of path edges and,
// independently, of structural edges (a chain containing any
// only-structural link is structural). The closure is a new matrix; m
// is left untouched. Cancellation is honored between topological
// levels, returning the context error. The stage "closure" items
// counter receives the number of condensed components.
func ClosureOpts(m *Matrix, opts engine.Options) (*Matrix, error) {
	stage := opts.Begin("closure", obs.Int("nodes", int64(m.N())))
	defer stage.End()
	path, ncp, err := closedRows(m.path, opts)
	if err != nil {
		return nil, err
	}
	str, ncs, err := closedRows(m.str, opts)
	if err != nil {
		return nil, err
	}
	stage.AddItems(int64(ncp + ncs))
	stage.SetAttrs(obs.Int("sccs_path", int64(ncp)), obs.Int("sccs_structural", int64(ncs)))
	return &Matrix{n: m.n, path: path, str: str, rpath: reverseRows(path), rstr: reverseRows(str)}, nil
}

// reverseRows returns the transpose of a relation as fresh rows.
func reverseRows(rows []*bitset.Set) []*bitset.Set {
	n := len(rows)
	rev := make([]*bitset.Set, n)
	for i := range rev {
		rev[i] = bitset.New(n)
	}
	for i, r := range rows {
		r.ForEach(func(j int) { rev[j].Set(i) })
	}
	return rev
}

// closedRows returns the transitive closure of one relation as fresh
// rows (the input rows are not modified), plus the number of strongly
// connected components of the relation's graph.
func closedRows(rows []*bitset.Set, opts engine.Options) ([]*bitset.Set, int, error) {
	n := len(rows)
	// Snapshot the adjacency as index slices: bitset iteration is
	// ascending, so successor lists are canonical.
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		if !rows[i].Any() {
			continue
		}
		s := make([]int32, 0, rows[i].Count())
		rows[i].ForEach(func(j int) { s = append(s, int32(j)) })
		adj[i] = s
	}
	comp, comps := tarjanSCC(adj, n)
	nc := len(comps)

	// Condensation metadata: cyclic flag, deduped successor components
	// and topological level per component. Tarjan's emission order is
	// reverse topological — for every cross edge C -> C', C' is emitted
	// before C — so one pass in emission order sees successors finished.
	cyclic := make([]bool, nc)
	succ := make([][]int32, nc)
	level := make([]int32, nc)
	maxLevel := int32(0)
	stamp := make([]int32, nc)
	for i := range stamp {
		stamp[i] = -1
	}
	for c := 0; c < nc; c++ {
		members := comps[c]
		cyclic[c] = len(members) > 1
		lv := int32(0)
		for _, u := range members {
			for _, w := range adj[u] {
				cw := comp[w]
				if cw == int32(c) {
					if w == u {
						cyclic[c] = true // self-loop
					}
					continue
				}
				if stamp[cw] != int32(c) {
					stamp[cw] = int32(c)
					succ[c] = append(succ[c], cw)
					if level[cw]+1 > lv {
						lv = level[cw] + 1
					}
				}
			}
		}
		level[c] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	buckets := make([][]int32, maxLevel+1)
	for c := 0; c < nc; c++ {
		buckets[level[c]] = append(buckets[level[c]], int32(c))
	}

	// Reverse-topological row unions, level by level. down[c] is the
	// reachability set of component c including its own members; the
	// result row of every member is down of the successors, plus the
	// members themselves when the component is cyclic (a node on a cycle
	// reaches itself). Components of one level are independent — each
	// writes only its own down set and member rows — so a level fans out
	// over the worker pool with a barrier in between, and the unions
	// commute, keeping results bit-identical at any worker count.
	down := make([]*bitset.Set, nc)
	out := make([]*bitset.Set, n)
	workers := opts.WorkerCount()
	ctx := opts.Ctx()
	process := func(c int32) {
		members := comps[c]
		res := bitset.New(n)
		for _, s := range succ[c] {
			res.Or(down[s])
		}
		if cyclic[c] {
			for _, u := range members {
				res.Set(int(u))
			}
		}
		d := res.Clone()
		for _, u := range members {
			d.Set(int(u))
		}
		down[c] = d
		out[members[0]] = res
		for _, u := range members[1:] {
			out[u] = res.Clone()
		}
	}
	for _, bucket := range buckets {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		w := workers
		if w > len(bucket) {
			w = len(bucket)
		}
		if w <= 1 {
			for _, c := range bucket {
				process(c)
			}
			continue
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					idx := int(next.Add(1)) - 1
					if idx >= len(bucket) {
						return
					}
					process(bucket[idx])
				}
			}()
		}
		wg.Wait()
	}
	return out, nc, nil
}

// tarjanSCC computes the strongly connected components of the graph
// given as adjacency lists, iteratively (no recursion — register chains
// make paths thousands of nodes long). It returns the component id per
// node and the member lists in reverse topological emission order:
// every component is emitted after all components reachable from it.
func tarjanSCC(adj [][]int32, n int) (comp []int32, comps [][]int32) {
	comp = make([]int32, n)
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
			if f.si < len(adj[v]) {
				w := adj[v][f.si]
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
				var members []int32
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					comp[w] = int32(len(comps))
					members = append(members, w)
					if w == v {
						break
					}
				}
				comps = append(comps, members)
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
	return comp, comps
}
