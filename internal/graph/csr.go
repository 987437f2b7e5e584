// Package graph holds the compressed-sparse-row adjacency shared by the
// scan-network and dependency-graph walks: one flat index array per
// graph instead of one slice (or bitset row) per node.
package graph

// CSR is a directed graph over nodes 0..Len()-1 in compressed-sparse-row
// form: node i's successors are Row(i), in the order they were added.
type CSR struct {
	ptr, idx []int32
}

// NewCSR builds the graph of n nodes whose edges the edges function
// reports by calling add(src, dst). It is called twice, for a counting
// and a filling pass, and must report the same edges in the same order
// both times.
func NewCSR(n int, edges func(add func(src, dst int))) CSR {
	c := CSR{ptr: make([]int32, n+1)}
	edges(func(src, _ int) { c.ptr[src+1]++ })
	for i := 0; i < n; i++ {
		c.ptr[i+1] += c.ptr[i]
	}
	c.idx = make([]int32, c.ptr[n])
	fill := append([]int32(nil), c.ptr[:n]...)
	edges(func(src, dst int) {
		c.idx[fill[src]] = int32(dst)
		fill[src]++
	})
	return c
}

// Len returns the number of nodes.
func (c *CSR) Len() int { return len(c.ptr) - 1 }

// Row returns node i's successors.
func (c *CSR) Row(i int) []int32 { return c.idx[c.ptr[i]:c.ptr[i+1]] }

// Edges returns the number of edges.
func (c *CSR) Edges() int { return len(c.idx) }

// FromRows builds the graph of n nodes whose successors row(i, dst)
// appends to dst for each node i in turn; edges is a capacity hint for
// the total edge count.
func FromRows(n, edges int, row func(i int, dst []int32) []int32) CSR {
	c := CSR{ptr: make([]int32, n+1), idx: make([]int32, 0, edges)}
	for i := 0; i < n; i++ {
		c.idx = row(i, c.idx)
		c.ptr[i+1] = int32(len(c.idx))
	}
	return c
}

// Transpose returns the graph with every edge reversed. Row j of the
// result lists the nodes i with an edge i -> j, ascending.
func (c *CSR) Transpose() CSR {
	n := c.Len()
	t := CSR{ptr: make([]int32, n+1), idx: make([]int32, len(c.idx))}
	for _, d := range c.idx {
		t.ptr[d+1]++
	}
	for i := 0; i < n; i++ {
		t.ptr[i+1] += t.ptr[i]
	}
	fill := append([]int32(nil), t.ptr[:n]...)
	for i := 0; i < n; i++ {
		for _, d := range c.Row(i) {
			t.idx[fill[d]] = int32(i)
			fill[d]++
		}
	}
	return t
}

// SCC computes the strongly connected components of g with Tarjan's
// algorithm, iteratively (no recursion — register chains make paths
// thousands of nodes long). It returns the component id per node and
// the members of component c as members[start[c]:start[c+1]], in
// reverse topological emission order: every component is emitted after
// all components reachable from it.
func (g *CSR) SCC() (comp, members, start []int32) {
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
