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
