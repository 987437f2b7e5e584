package netlist

import "hash"

// HasherBufSize exports the Hasher's buffer length to the external
// tests.
const HasherBufSize = hasherBufSize

// countingHash counts the bytes written to a hash.
type countingHash struct {
	hash.Hash
	n int
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.Hash.Write(p)
}

// NewMirroredHasher returns a Hasher with the unbuffered reference
// hasher attached as its mirror, and a function returning the
// reference digest of everything hashed so far and the length of the
// framed stream behind it.
func NewMirroredHasher() (*Hasher, func() (string, int)) {
	h, ref := NewHasher(), newRefHasher()
	counter := &countingHash{Hash: ref.h, n: 0}
	ref.h = counter
	// The CanonVersion prefix went in before the counter was attached.
	counter.n = 2 + len(CanonVersion)
	h.mirror = ref
	return h, func() (string, int) { return ref.SumHex(), counter.n }
}
