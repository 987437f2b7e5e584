package graph

import (
	"slices"
	"testing"
)

func TestNewCSR(t *testing.T) {
	edges := [][2]int{{2, 0}, {0, 1}, {2, 1}, {0, 3}, {2, 0}}
	c := NewCSR(4, func(add func(src, dst int)) {
		for _, e := range edges {
			add(e[0], e[1])
		}
	})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	want := [][]int32{{1, 3}, nil, {0, 1, 0}, nil}
	for i, w := range want {
		if got := c.Row(i); !slices.Equal(got, w) {
			t.Fatalf("Row(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	rows := [][]int32{{1, 3}, nil, {0, 1}, {3}}
	c := FromRows(len(rows), 0, func(i int, dst []int32) []int32 { return append(dst, rows[i]...) })
	for i, w := range rows {
		if got := c.Row(i); !slices.Equal(got, w) {
			t.Fatalf("Row(%d) = %v, want %v", i, got, w)
		}
	}
	tr := c.Transpose()
	want := [][]int32{{2}, {0, 2}, nil, {0, 3}}
	for i, w := range want {
		if got := tr.Row(i); !slices.Equal(got, w) {
			t.Fatalf("Transpose Row(%d) = %v, want %v", i, got, w)
		}
	}
	if e := FromRows(0, 0, nil); e.Len() != 0 {
		t.Fatalf("empty graph Len = %d", e.Len())
	}
}
