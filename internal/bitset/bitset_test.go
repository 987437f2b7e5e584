package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Any() {
		t.Fatal("fresh set must be empty")
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 4 {
		t.Fatal("Clear failed")
	}
	if !s.Any() {
		t.Fatal("Any must be true")
	}
	s.Reset()
	if s.Any() || s.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestOr(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	b.Set(3)
	b.Set(70)
	if !a.Or(b) {
		t.Fatal("Or must report change")
	}
	if !a.Has(70) || !a.Has(3) || a.Count() != 2 {
		t.Fatal("Or result wrong")
	}
	if a.Or(b) {
		t.Fatal("second Or must report no change")
	}
}

func TestAndNot(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(65)
	b.Set(65)
	a.AndNot(b)
	if a.Has(65) || !a.Has(1) {
		t.Fatal("AndNot wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(10)
	b := a.Clone()
	b.Set(20)
	if a.Has(20) {
		t.Fatal("clone shares storage")
	}
	if !b.Has(10) {
		t.Fatal("clone lost bits")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{0, 5, 63, 64, 128, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestIntersectsWith(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(100)
	b.Set(101)
	if a.IntersectsWith(b) {
		t.Fatal("disjoint sets intersect")
	}
	b.Set(100)
	if !a.IntersectsWith(b) {
		t.Fatal("intersection missed")
	}
}

func TestQuickAgainstMap(t *testing.T) {
	// Property: a Set behaves like a map[int]bool under random ops.
	f := func(ops []uint16) bool {
		const n = 300
		s := New(n)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch (op / 300) % 3 {
			case 0:
				s.Set(i)
				ref[i] = true
			case 1:
				s.Clear(i)
				delete(ref, i)
			case 2:
				if s.Has(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := range ref {
			if !s.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrChangeDetectionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		a, b := New(256), New(256)
		for i := 0; i < 40; i++ {
			a.Set(rng.Intn(256))
			b.Set(rng.Intn(256))
		}
		before := a.Clone()
		changed := a.Or(b)
		grew := a.Count() > before.Count()
		if changed != grew {
			t.Fatalf("Or change=%v but count %d -> %d", changed, before.Count(), a.Count())
		}
	}
}

func TestRowsIndependent(t *testing.T) {
	rows := Rows(3, 70)
	rows[1].Set(69)
	rows[2].Set(0)
	if rows[0].Any() || rows[1].Has(0) || !rows[1].Has(69) || rows[2].Count() != 1 {
		t.Fatal("slab rows share bits")
	}
	// Copy and Reset stay inside their own row.
	rows[0].Copy(&rows[1])
	rows[1].Reset()
	if !rows[0].Has(69) || rows[1].Any() || !rows[2].Has(0) || rows[0].Len() != 70 {
		t.Fatal("Copy/Reset crossed a row boundary")
	}
}

// TestOrNewReportsNewBits checks OrNewWords over all of o's non-zero
// words with every bit watched: it reports each new bit once, in
// ascending order, and a second union adds nothing.
func TestOrNewReportsNewBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	all := New(200)
	for i := 0; i < 200; i++ {
		all.Set(i)
	}
	for iter := 0; iter < 50; iter++ {
		a, b := New(200), New(200)
		for i := 0; i < 30; i++ {
			a.Set(rng.Intn(200))
			b.Set(rng.Intn(200))
		}
		before := a.Clone()
		var seen []int
		words := b.AppendWords(nil)
		got := a.OrNewWords(b, words, all, func(i int) { seen = append(seen, i) })
		var want []int
		b.ForEach(func(i int) {
			if !before.Has(i) {
				want = append(want, i)
			}
		})
		if got != len(want) || !slices.Equal(seen, want) {
			t.Fatalf("OrNewWords = %d %v, want %d %v", got, seen, len(want), want)
		}
		before.Or(b)
		if !a.Equal(before) {
			t.Fatal("OrNewWords result differs from Or")
		}
		if a.OrNewWords(b, words, nil, nil) != 0 {
			t.Fatal("second OrNewWords must add nothing")
		}
	}
}

func TestAppendTo(t *testing.T) {
	s := New(200)
	for _, i := range []int{1, 64, 65, 199} {
		s.Set(i)
	}
	if got := s.AppendTo([]int32{7}); !slices.Equal(got, []int32{7, 1, 64, 65, 199}) {
		t.Fatalf("AppendTo = %v", got)
	}
}

// TestWordRestrictedOps checks the word-restricted operations against
// whole-set ones on sizes around word boundaries: OrNewWords over o's
// non-zero words and OrNewSpan over o's word span equal Or and count
// the bits it adds, OrNewWords reports exactly the new bits inside
// watch, and ForEachAnd over the listed words of o visits s ∩ o.
func TestWordRestrictedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 63, 64, 65, 128, 130, 300} {
		for iter := 0; iter < 30; iter++ {
			rnd := func(k int) *Set {
				s := New(n)
				for i := 0; i < k; i++ {
					s.Set(rng.Intn(n))
				}
				return s
			}
			a, o, watch := rnd(n/4+1), rnd(rng.Intn(n/8+2)), rnd(n/3+1)
			words := o.AppendWords(nil)
			for _, wi := range words {
				if o.words[wi] == 0 {
					t.Fatalf("n=%d: AppendWords listed zero word %d", n, wi)
				}
			}
			want := a.Clone()
			want.Or(o)
			wantNew := want.Count() - a.Count()

			got := a.Clone()
			var seen []int
			if c := got.OrNewWords(o, words, watch, func(i int) { seen = append(seen, i) }); c != wantNew || !got.Equal(want) {
				t.Fatalf("n=%d: OrNewWords = %d, want %d (sets equal %v)", n, c, wantNew, got.Equal(want))
			}
			var wantSeen []int
			o.ForEach(func(i int) {
				if !a.Has(i) && watch.Has(i) {
					wantSeen = append(wantSeen, i)
				}
			})
			if !slices.Equal(seen, wantSeen) {
				t.Fatalf("n=%d: watched new bits %v, want %v", n, seen, wantSeen)
			}

			got = a.Clone()
			lo, hi := 0, 0
			if len(words) > 0 {
				lo, hi = int(words[0]), int(words[len(words)-1])+1
			}
			if c := got.OrNewSpan(o, lo, hi); c != wantNew || !got.Equal(want) {
				t.Fatalf("n=%d: OrNewSpan = %d, want %d (sets equal %v)", n, c, wantNew, got.Equal(want))
			}

			var and, wantAnd []int
			a.ForEachAnd(o, words, func(i int) { and = append(and, i) })
			a.ForEach(func(i int) {
				if o.Has(i) {
					wantAnd = append(wantAnd, i)
				}
			})
			if !slices.Equal(and, wantAnd) {
				t.Fatalf("n=%d: ForEachAnd %v, want %v", n, and, wantAnd)
			}
		}
	}
}
