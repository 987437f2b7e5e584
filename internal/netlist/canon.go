package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// CanonVersion is the versioned prefix of the canonical serialization.
// It is hashed before any payload, so digests of different encoding
// generations can never collide. Bump the suffix on any change to the
// framing or to a structure's AppendCanonical field order — the digest
// is a cache key (internal/serve addresses analysis results by it), and
// a silent format drift would alias incompatible results.
const CanonVersion = "rsnsec.canon/v1"

// Hasher computes the canonical SHA-256 digest of analysis inputs.
//
// The encoding is framed, not concatenative: every primitive writes a
// one-byte tag followed by a fixed- or length-prefixed payload, so
// adjacent fields cannot alias each other ("ab","c" hashes differently
// from "a","bc") and absent optional parts hash differently from empty
// ones. Structures serialize their fields in a fixed, documented order
// (netlist.Netlist, rsn.Network and secspec.Spec implement
// AppendCanonical); maps never feed the hasher.
//
// Primitives are framed into a fixed buffer inside the Hasher, which
// reaches SHA-256 in one Write whenever the next primitive would not
// fit and at Sum. Only the chunking of the stream differs from writing
// each primitive on its own, so the digests are the same; hashing
// allocates nothing beyond the Hasher, its SHA-256 state and SumHex's
// string.
type Hasher struct {
	h   hash.Hash
	n   int // bytes pending in buf
	buf [hasherBufSize]byte
	sum [sha256.Size]byte
	// mirror, when set, receives every primitive call too; the tests
	// attach the unbuffered reference hasher here.
	mirror canonSink
}

// hasherBufSize holds the longest fixed primitive (a tag pair and a
// varint) many times over; strings longer than the free space are
// copied through it in pieces.
const hasherBufSize = 512

// maxFixed is the longest fixed-size primitive: two tag bytes and a
// varint.
const maxFixed = 2 + binary.MaxVarintLen64

// canonSink is the primitive call set of a Hasher.
type canonSink interface {
	Str(s string)
	Int(v int64)
	Uint(v uint64)
	Float(v float64)
	Bool(v bool)
	Section(name string)
	List(n int)
}

// NewHasher returns a hasher seeded with the CanonVersion prefix.
func NewHasher() *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(CanonVersion)
	return h
}

// flush hands the pending bytes to SHA-256.
func (h *Hasher) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

// reserve makes room for a fixed-size primitive.
func (h *Hasher) reserve() {
	if h.n > len(h.buf)-maxFixed {
		h.flush()
	}
}

// uvarint frames tag, then v as an unsigned varint; room is reserved.
func (h *Hasher) uvarint(tag byte, v uint64) {
	h.buf[h.n] = tag
	h.n += 1 + binary.PutUvarint(h.buf[h.n+1:], v)
}

// str frames a length-prefixed string.
func (h *Hasher) str(s string) {
	h.reserve()
	h.uvarint('S', uint64(len(s)))
	for {
		c := copy(h.buf[h.n:], s)
		h.n += c
		s = s[c:]
		if len(s) == 0 {
			return
		}
		h.flush()
	}
}

// Str hashes a length-prefixed string.
func (h *Hasher) Str(s string) {
	if h.mirror != nil {
		h.mirror.Str(s)
	}
	h.str(s)
}

// Int hashes a signed integer.
func (h *Hasher) Int(v int64) {
	if h.mirror != nil {
		h.mirror.Int(v)
	}
	h.reserve()
	h.buf[h.n] = 'I'
	h.n += 1 + binary.PutVarint(h.buf[h.n+1:], v)
}

// Uint hashes an unsigned integer.
func (h *Hasher) Uint(v uint64) {
	if h.mirror != nil {
		h.mirror.Uint(v)
	}
	h.reserve()
	h.uvarint('U', v)
}

// Float hashes a float64 by its IEEE-754 bit pattern, so canonical
// digests never depend on decimal formatting.
func (h *Hasher) Float(v float64) {
	if h.mirror != nil {
		h.mirror.Float(v)
	}
	h.reserve()
	h.buf[h.n] = 'F'
	binary.BigEndian.PutUint64(h.buf[h.n+1:], math.Float64bits(v))
	h.n += 9
}

// Bool hashes a boolean.
func (h *Hasher) Bool(v bool) {
	if h.mirror != nil {
		h.mirror.Bool(v)
	}
	h.reserve()
	h.buf[h.n] = 'B'
	h.buf[h.n+1] = 0
	if v {
		h.buf[h.n+1] = 1
	}
	h.n += 2
}

// Section marks the start of a named substructure. Every
// AppendCanonical implementation opens with a Section naming its type,
// so digests of different structure kinds can never collide even when
// their field payloads happen to agree.
func (h *Hasher) Section(name string) {
	if h.mirror != nil {
		h.mirror.Section(name)
	}
	h.reserve()
	h.buf[h.n] = 'T'
	h.n++
	h.str(name)
}

// List marks a list of n elements; the elements follow.
func (h *Hasher) List(n int) {
	if h.mirror != nil {
		h.mirror.List(n)
	}
	h.reserve()
	h.buf[h.n] = 'L'
	h.n++
	h.uvarint('U', uint64(n))
}

// Sum returns the digest of everything hashed so far. The hasher
// remains usable; later writes extend the stream.
func (h *Hasher) Sum() [sha256.Size]byte {
	h.flush()
	h.h.Sum(h.sum[:0])
	return h.sum
}

// SumHex returns Sum as a lowercase hex string — the content-address
// form used as store key and HTTP-visible identifier.
func (h *Hasher) SumHex() string {
	sum := h.Sum()
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// AppendCanonical hashes the netlist in canonical form: node table
// (kind, gate, fan-in, name) in id order, flip-flop table (node, D,
// module, name) in id order, primary inputs, then module names. All
// orders are the construction orders the ids already fix, so two
// structurally identical netlists built the same way hash identically
// regardless of how they were assembled in memory.
func (n *Netlist) AppendCanonical(h *Hasher) {
	h.Section("netlist")
	h.List(len(n.Nodes))
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		h.Int(int64(nd.Kind))
		h.Int(int64(nd.Gate))
		h.Str(nd.Name)
		h.List(len(nd.Fanin))
		for _, f := range nd.Fanin {
			h.Int(int64(f))
		}
	}
	h.List(len(n.FFs))
	for i := range n.FFs {
		ff := &n.FFs[i]
		h.Int(int64(ff.Node))
		h.Int(int64(ff.D))
		h.Int(int64(ff.Module))
		h.Str(ff.Name)
	}
	h.List(len(n.Inputs))
	for _, in := range n.Inputs {
		h.Int(int64(in))
	}
	h.List(len(n.Modules))
	for _, m := range n.Modules {
		h.Str(m)
	}
}

// CanonicalHash returns the canonical digest of one netlist alone.
func CanonicalHash(n *Netlist) string {
	h := NewHasher()
	n.AppendCanonical(h)
	return h.SumHex()
}
