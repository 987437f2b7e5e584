package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// This file keeps the original unbuffered Hasher as a test-only
// reference: every primitive goes to SHA-256 in its own Write calls.
// The buffered Hasher must produce the identical digest for any call
// sequence; TestHasherMatchesReference drives both with random
// primitive streams, and the external tests in canon_diff_test.go
// attach the reference as the Hasher's mirror to compare the canonical
// forms of whole structures.

type refHasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64 + 1]byte
}

func newRefHasher() *refHasher {
	h := &refHasher{h: sha256.New()}
	h.Str(CanonVersion)
	return h
}

func (h *refHasher) writeTagged(tag byte, payload []byte) {
	h.buf[0] = tag
	h.h.Write(h.buf[:1])
	h.h.Write(payload)
}

func (h *refHasher) Str(s string) {
	h.buf[0] = 'S'
	n := binary.PutUvarint(h.buf[1:], uint64(len(s)))
	h.h.Write(h.buf[:1+n])
	h.h.Write([]byte(s))
}

func (h *refHasher) Int(v int64) {
	h.buf[0] = 'I'
	n := binary.PutVarint(h.buf[1:], v)
	h.h.Write(h.buf[:1+n])
}

func (h *refHasher) Uint(v uint64) {
	h.buf[0] = 'U'
	n := binary.PutUvarint(h.buf[1:], v)
	h.h.Write(h.buf[:1+n])
}

func (h *refHasher) Float(v float64) {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], math.Float64bits(v))
	h.writeTagged('F', p[:])
}

func (h *refHasher) Bool(v bool) {
	if v {
		h.writeTagged('B', []byte{1})
	} else {
		h.writeTagged('B', []byte{0})
	}
}

func (h *refHasher) Section(name string) {
	h.buf[0] = 'T'
	h.h.Write(h.buf[:1])
	h.Str(name)
}

func (h *refHasher) List(n int) {
	h.buf[0] = 'L'
	h.h.Write(h.buf[:1])
	h.Uint(uint64(n))
}

func (h *refHasher) SumHex() string {
	var out [sha256.Size]byte
	h.h.Sum(out[:0])
	return hex.EncodeToString(out[:])
}

// randomPrimitive applies one random primitive call to both sinks.
// Strings run up to three buffer lengths, integers cover every varint
// width and floats include signed zeros, infinities and NaN payloads.
func randomPrimitive(rng *rand.Rand, sinks ...canonSink) {
	var call func(canonSink)
	switch rng.Intn(7) {
	case 0, 1:
		n := rng.Intn(8)
		if rng.Intn(4) == 0 {
			n = rng.Intn(3 * hasherBufSize)
		}
		s := strings.Repeat(string(rune('a'+rng.Intn(26))), n)
		call = func(h canonSink) { h.Str(s) }
	case 2:
		v := rng.Int63() >> rng.Intn(64)
		if rng.Intn(2) == 0 {
			v = -v
		}
		if rng.Intn(16) == 0 {
			v = math.MinInt64
		}
		call = func(h canonSink) { h.Int(v) }
	case 3:
		v := rng.Uint64() >> rng.Intn(65)
		call = func(h canonSink) { h.Uint(v) }
	case 4:
		v := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1),
			math.NaN(), math.Float64frombits(0x7ff8000000000001), rng.NormFloat64()}[rng.Intn(8)]
		call = func(h canonSink) { h.Float(v) }
	case 5:
		v := rng.Intn(2) == 1
		call = func(h canonSink) { h.Bool(v) }
	default:
		if rng.Intn(2) == 0 {
			name := strings.Repeat("s", rng.Intn(40))
			call = func(h canonSink) { h.Section(name) }
		} else {
			n := rng.Intn(1 << uint(rng.Intn(31)))
			call = func(h canonSink) { h.List(n) }
		}
	}
	for _, h := range sinks {
		call(h)
	}
}

// TestHasherMatchesReference drives the buffered and the reference
// hasher with the same random primitive streams, from a single call to
// several buffer lengths, and compares digests after every prefix
// length in a sample (Sum must not disturb the stream).
func TestHasherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		h, ref := NewHasher(), newRefHasher()
		calls := 1 + rng.Intn(1+trial*4)
		for i := 0; i < calls; i++ {
			randomPrimitive(rng, h, ref)
			if i == calls-1 || rng.Intn(32) == 0 {
				if got, want := h.SumHex(), ref.SumHex(); got != want {
					t.Fatalf("trial %d after %d calls: buffered %s, reference %s", trial, i+1, got, want)
				}
			}
		}
	}
}

// TestHasherAllocations checks that hashing allocates nothing beyond
// the Hasher, its SHA-256 state and the hex digest.
func TestHasherAllocations(t *testing.T) {
	long := strings.Repeat("x", 3*hasherBufSize)
	var sink string
	allocs := testing.AllocsPerRun(20, func() {
		h := NewHasher()
		for i := 0; i < 200; i++ {
			h.Section("s")
			h.Str("name")
			h.Str(long)
			h.Int(int64(i))
			h.Uint(uint64(i))
			h.Float(float64(i))
			h.Bool(i%2 == 0)
			h.List(i)
		}
		sink = h.SumHex()
	})
	if allocs > 3 {
		t.Errorf("hashing allocated %.0f times, want at most 3 (Hasher, SHA-256 state, hex digest)", allocs)
	}
	_ = sink
}
