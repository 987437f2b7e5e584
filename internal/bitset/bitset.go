// Package bitset provides a dense fixed-size bit set used by the
// dependency matrices: one row per flip-flop, one bit per potential
// dependency source. The multi-cycle closure is bit-parallel over rows.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. Create one with New; the zero value
// is an empty set of capacity 0.
type Set struct {
	words []uint64
	n     int
}

// New returns a set with capacity for n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Rows returns count sets of capacity n each, all clear, carved from
// one backing allocation: the rows of a dense count×n bit matrix.
func Rows(count, n int) []Set {
	w := (n + 63) / 64
	slab := make([]uint64, count*w)
	rows := make([]Set, count)
	for i := range rows {
		rows[i] = Set{words: slab[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return rows
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets s to s ∪ o and reports whether s changed. The sets must have
// equal capacity.
func (s *Set) Or(o *Set) bool {
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// OrNew sets s to s ∪ o and returns the number of bits that were not
// already in s. When f is non-nil it is called with each of those bits
// in ascending order. The sets must have equal capacity.
func (s *Set) OrNew(o *Set, f func(i int)) int {
	c := 0
	for wi, w := range o.words {
		nw := w &^ s.words[wi]
		if nw == 0 {
			continue
		}
		s.words[wi] |= nw
		c += bits.OnesCount64(nw)
		for ; f != nil && nw != 0; nw &= nw - 1 {
			f(wi<<6 + bits.TrailingZeros64(nw))
		}
	}
	return c
}

// AndNot sets s to s \ o.
func (s *Set) AndNot(o *Set) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	cp := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(cp.words, s.words)
	return cp
}

// Copy sets s to o. The sets must have equal capacity.
func (s *Set) Copy(o *Set) { copy(s.words, o.words) }

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls f with every set bit index in ascending order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi<<6 + b)
			w &= w - 1
		}
	}
}

// AppendTo appends every set bit index to dst in ascending order and
// returns the extended slice.
func (s *Set) AppendTo(dst []int32) []int32 {
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o have the same length and members.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// IntersectsWith reports whether s ∩ o is non-empty.
func (s *Set) IntersectsWith(o *Set) bool {
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}
