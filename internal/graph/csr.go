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
