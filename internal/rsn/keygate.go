package rsn

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// Key-gated scan obfuscation. An Obfuscation is an overlay on an
// existing network: it does not change the structural graph, it gates
// how values and selections behave during shift. Two gate kinds are
// modeled, matching the defenses attacked in the scan-obfuscation
// literature:
//
//   - KeyXOR: an XOR gate on a register's scan-output link. Every
//     value leaving the register's last scan FF (to the next path
//     element or to scan-out) is XORed with one key bit.
//   - KeyMux: a key-controlled scan mux. The effective select of a
//     2-input mux becomes cfg XOR key bit, so an attacker who does not
//     know the key no longer knows which path a configuration opens.
//
// The key schedule is either static (the key bits gate directly, the
// classic EFF/ScanSAT target) or dynamic à la DynUnlock: the key seeds
// an LFSR that advances one step per shift cycle, and gates read the
// current LFSR state instead of the key itself.
const ObfuscationSchema = "rsnsec.obfus-overlay/v1"

// Gate kinds.
const (
	KeyXOR = "xor"
	KeyMux = "mux"
)

// KeyGate binds one key bit to one network element.
type KeyGate struct {
	Kind string // KeyXOR (Elem is a register id) or KeyMux (mux id)
	Elem int
	Bit  int // key bit index driving the gate
}

// Obfuscation is a key-gate overlay over a network. The zero value is
// an empty overlay (no gates, no key bits) and is invalid; overlays
// must carry at least one key bit.
type Obfuscation struct {
	NumKeyBits int
	Gates      []KeyGate
	// Dynamic selects the DynUnlock-style key schedule: the key is the
	// initial LFSR state and the state advances one step per shift
	// cycle. Taps lists the feedback tap bit indices.
	Dynamic bool
	Taps    []int
}

// Validate checks the overlay against a network: key bits and element
// ids in range, key muxes restricted to 2-input muxes (wider muxes
// have no single-bit select to gate), at most one gate per element,
// and a usable tap set when the schedule is dynamic.
func (ov *Obfuscation) Validate(nw *Network) error {
	if ov.NumKeyBits < 1 {
		return fmt.Errorf("rsn: obfuscation needs at least one key bit")
	}
	if len(ov.Gates) == 0 {
		return fmt.Errorf("rsn: obfuscation has no gates")
	}
	seen := map[[2]int]bool{}
	for i, g := range ov.Gates {
		if g.Bit < 0 || g.Bit >= ov.NumKeyBits {
			return fmt.Errorf("rsn: gate %d key bit %d out of range [0,%d)", i, g.Bit, ov.NumKeyBits)
		}
		switch g.Kind {
		case KeyXOR:
			if g.Elem < 0 || g.Elem >= len(nw.Registers) {
				return fmt.Errorf("rsn: gate %d register id %d out of range", i, g.Elem)
			}
			if seen[[2]int{0, g.Elem}] {
				return fmt.Errorf("rsn: register R%d gated twice", g.Elem)
			}
			seen[[2]int{0, g.Elem}] = true
		case KeyMux:
			if g.Elem < 0 || g.Elem >= len(nw.Muxes) {
				return fmt.Errorf("rsn: gate %d mux id %d out of range", i, g.Elem)
			}
			if n := len(nw.Muxes[g.Elem].Inputs); n != 2 {
				return fmt.Errorf("rsn: key mux M%d has %d inputs, want 2", g.Elem, n)
			}
			if seen[[2]int{1, g.Elem}] {
				return fmt.Errorf("rsn: mux M%d gated twice", g.Elem)
			}
			seen[[2]int{1, g.Elem}] = true
		default:
			return fmt.Errorf("rsn: gate %d has unknown kind %q", i, g.Kind)
		}
	}
	if ov.Dynamic {
		if len(ov.Taps) == 0 {
			return fmt.Errorf("rsn: dynamic schedule needs at least one LFSR tap")
		}
		for _, t := range ov.Taps {
			if t < 0 || t >= ov.NumKeyBits {
				return fmt.Errorf("rsn: LFSR tap %d out of range [0,%d)", t, ov.NumKeyBits)
			}
		}
	} else if len(ov.Taps) != 0 {
		return fmt.Errorf("rsn: static schedule must not set LFSR taps")
	}
	return nil
}

// regGate returns the key bit gating register id's scan-output link,
// or -1 when the register is ungated.
func (ov *Obfuscation) regGate(id int) int {
	for _, g := range ov.Gates {
		if g.Kind == KeyXOR && g.Elem == id {
			return g.Bit
		}
	}
	return -1
}

// muxGate returns the key bit gating mux id's select, or -1.
func (ov *Obfuscation) muxGate(id int) int {
	for _, g := range ov.Gates {
		if g.Kind == KeyMux && g.Elem == id {
			return g.Bit
		}
	}
	return -1
}

// MuxGateBits returns the sorted set of key bits driving mux gates.
func (ov *Obfuscation) MuxGateBits() []int {
	var bits []int
	seen := map[int]bool{}
	for _, g := range ov.Gates {
		if g.Kind == KeyMux && !seen[g.Bit] {
			seen[g.Bit] = true
			bits = append(bits, g.Bit)
		}
	}
	sort.Ints(bits)
	return bits
}

// NextKeyState advances a dynamic key schedule by one shift cycle: a
// Fibonacci LFSR shifting toward bit 0 with the tap parity entering at
// the top. Static schedules return the state unchanged. The result is
// a fresh slice.
func (ov *Obfuscation) NextKeyState(s []bool) []bool {
	n := make([]bool, len(s))
	if !ov.Dynamic {
		copy(n, s)
		return n
	}
	fb := false
	for _, t := range ov.Taps {
		fb = fb != s[t]
	}
	copy(n, s[1:])
	n[len(s)-1] = fb
	return n
}

// EffectiveConfig maps an attacker-visible configuration to the
// configuration the hardware actually decodes under key state ks:
// gated mux selects are XORed with their key bit, ungated selects pass
// through. The input cfg may be shorter than the mux count (missing
// entries select input 0, as in ActivePath).
func (ov *Obfuscation) EffectiveConfig(nw *Network, cfg Config, ks []bool) Config {
	eff := make(Config, len(nw.Muxes))
	for m := range nw.Muxes {
		sel := 0
		if m < len(cfg) {
			sel = cfg[m]
		}
		if b := ov.muxGate(m); b >= 0 && ks[b] {
			sel ^= 1
		}
		eff[m] = sel
	}
	return eff
}

// KeyedSimulator shifts a network under a key-gate overlay. Its shift
// semantics mirror Simulator.Shift exactly — only path cells move,
// off-path cells hold, the pre-shift value of the last path cell
// appears at scan-out — with two additions: the active path is
// resolved through the effective (key-XORed) configuration, and every
// value crossing a gated register's output link is XORed with the
// gate's current key bit. Dynamic schedules advance the LFSR once per
// shift cycle.
type KeyedSimulator struct {
	nw   *Network
	ov   *Obfuscation
	scan [][]bool
	ks   []bool
}

// NewKeyedSimulator returns a keyed simulator with all scan FFs at 0
// and the key schedule at its initial state (the key itself).
func NewKeyedSimulator(nw *Network, ov *Obfuscation, key []bool) (*KeyedSimulator, error) {
	if err := ov.Validate(nw); err != nil {
		return nil, err
	}
	if len(key) != ov.NumKeyBits {
		return nil, fmt.Errorf("rsn: key has %d bits, overlay wants %d", len(key), ov.NumKeyBits)
	}
	scan := make([][]bool, len(nw.Registers))
	for i := range scan {
		scan[i] = make([]bool, nw.Registers[i].Len)
	}
	ks := make([]bool, len(key))
	copy(ks, key)
	return &KeyedSimulator{nw: nw, ov: ov, scan: scan, ks: ks}, nil
}

// ScanFF returns the current value of scan FF i of register reg.
func (s *KeyedSimulator) ScanFF(reg, i int) bool { return s.scan[reg][i] }

// Shift runs one keyed shift cycle under the attacker-visible
// configuration cfg and returns the scan-out bit.
func (s *KeyedSimulator) Shift(cfg Config, in bool) (out bool, err error) {
	eff := s.ov.EffectiveConfig(s.nw, cfg, s.ks)
	path, err := s.nw.ActivePath(eff)
	if err != nil {
		return false, fmt.Errorf("keyed shift: %w", err)
	}
	defer func() { s.ks = s.ov.NextKeyState(s.ks) }()
	if len(path) == 0 {
		return in, nil
	}
	last := path[len(path)-1]
	out = s.scan[last.Register][last.FF]
	if b := s.ov.regGate(last.Register); b >= 0 && s.ks[b] {
		out = !out
	}
	for k := len(path) - 1; k >= 1; k-- {
		prev := path[k-1]
		v := s.scan[prev.Register][prev.FF]
		// The XOR gate sits on the register's output link: it applies
		// when the value crosses from the last FF of prev's register
		// into the next register on the path.
		if prev.Register != path[k].Register {
			if b := s.ov.regGate(prev.Register); b >= 0 && s.ks[b] {
				v = !v
			}
		}
		s.scan[path[k].Register][path[k].FF] = v
	}
	s.scan[path[0].Register][path[0].FF] = in
	return out, nil
}

// ShiftN performs n keyed shift cycles feeding the given bits (padded
// with zeros) and returns the bits observed at scan-out.
func (s *KeyedSimulator) ShiftN(cfg Config, bits []bool, n int) ([]bool, error) {
	out := make([]bool, 0, n)
	for k := 0; k < n; k++ {
		in := false
		if k < len(bits) {
			in = bits[k]
		}
		o, err := s.Shift(cfg, in)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// AppendCanonical feeds the overlay into a canonical hasher, so
// attack submissions content-address identically iff their overlays
// are identical.
func (ov *Obfuscation) AppendCanonical(h *netlist.Hasher) {
	h.Section("rsn.obfuscation")
	h.Int(int64(ov.NumKeyBits))
	h.Bool(ov.Dynamic)
	h.List(len(ov.Taps))
	for _, t := range ov.Taps {
		h.Int(int64(t))
	}
	h.List(len(ov.Gates))
	for _, g := range ov.Gates {
		h.Str(g.Kind)
		h.Int(int64(g.Elem))
		h.Int(int64(g.Bit))
	}
}

// Overlay sidecar document. The ICL grammar has no key-gate syntax, so
// overlays travel as JSON next to the network, referencing elements by
// name. The optional key field is the defender's copy of the secret:
// attack-feasibility runs need the true key to answer oracle queries.
type overlayDoc struct {
	Schema  string       `json:"schema"`
	KeyBits int          `json:"key_bits"`
	Dynamic bool         `json:"dynamic,omitempty"`
	Taps    []int        `json:"taps,omitempty"`
	Gates   []overlayGat `json:"gates"`
	Key     string       `json:"key,omitempty"`
}

type overlayGat struct {
	Kind string `json:"kind"`
	Elem string `json:"elem"`
	Bit  int    `json:"bit"`
}

// ParseObfuscation decodes an rsnsec.obfus-overlay/v1 document and
// resolves its element names against nw. It returns the overlay and,
// when the document carries the defender's key, its bits (nil
// otherwise). The overlay is validated before return.
func ParseObfuscation(data []byte, nw *Network) (*Obfuscation, []bool, error) {
	var doc overlayDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("rsn: overlay: %w", err)
	}
	if doc.Schema != ObfuscationSchema {
		return nil, nil, fmt.Errorf("rsn: overlay schema %q, want %q", doc.Schema, ObfuscationSchema)
	}
	regs := make(map[string]int, len(nw.Registers))
	for i, r := range nw.Registers {
		regs[r.Name] = i
	}
	muxes := make(map[string]int, len(nw.Muxes))
	for i, m := range nw.Muxes {
		muxes[m.Name] = i
	}
	ov := &Obfuscation{NumKeyBits: doc.KeyBits, Dynamic: doc.Dynamic, Taps: doc.Taps}
	for i, g := range doc.Gates {
		var id int
		var ok bool
		switch g.Kind {
		case KeyXOR:
			id, ok = regs[g.Elem]
			if !ok {
				return nil, nil, fmt.Errorf("rsn: overlay gate %d: unknown register %q", i, g.Elem)
			}
		case KeyMux:
			id, ok = muxes[g.Elem]
			if !ok {
				return nil, nil, fmt.Errorf("rsn: overlay gate %d: unknown mux %q", i, g.Elem)
			}
		default:
			return nil, nil, fmt.Errorf("rsn: overlay gate %d: unknown kind %q", i, g.Kind)
		}
		ov.Gates = append(ov.Gates, KeyGate{Kind: g.Kind, Elem: id, Bit: g.Bit})
	}
	if err := ov.Validate(nw); err != nil {
		return nil, nil, err
	}
	var key []bool
	if doc.Key != "" {
		k, err := ParseKeyHex(doc.Key, ov.NumKeyBits)
		if err != nil {
			return nil, nil, fmt.Errorf("rsn: overlay key: %w", err)
		}
		key = k
	}
	return ov, key, nil
}

// MarshalObfuscation encodes an overlay (and optionally the defender's
// key, when key is non-nil) as an rsnsec.obfus-overlay/v1 document.
func MarshalObfuscation(ov *Obfuscation, nw *Network, key []bool) ([]byte, error) {
	if err := ov.Validate(nw); err != nil {
		return nil, err
	}
	doc := overlayDoc{Schema: ObfuscationSchema, KeyBits: ov.NumKeyBits, Dynamic: ov.Dynamic, Taps: ov.Taps}
	for _, g := range ov.Gates {
		name := ""
		switch g.Kind {
		case KeyXOR:
			name = nw.Registers[g.Elem].Name
		case KeyMux:
			name = nw.Muxes[g.Elem].Name
		}
		doc.Gates = append(doc.Gates, overlayGat{Kind: g.Kind, Elem: name, Bit: g.Bit})
	}
	if key != nil {
		if len(key) != ov.NumKeyBits {
			return nil, fmt.Errorf("rsn: key has %d bits, overlay wants %d", len(key), ov.NumKeyBits)
		}
		doc.Key = KeyHex(key)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// KeyHex encodes key bits as lowercase hex, bit 0 the least
// significant bit of the last byte (big-endian integer reading).
func KeyHex(key []bool) string {
	nb := (len(key) + 7) / 8
	buf := make([]byte, nb)
	for i, b := range key {
		if b {
			buf[nb-1-i/8] |= 1 << (i % 8)
		}
	}
	return hex.EncodeToString(buf)
}

// ParseKeyHex decodes an n-bit key from KeyHex's encoding. The string
// must describe exactly the bytes needed for n bits, and bits above n
// must be zero.
func ParseKeyHex(s string, n int) ([]bool, error) {
	buf, err := hex.DecodeString(s)
	if err != nil {
		return nil, err
	}
	nb := (n + 7) / 8
	if len(buf) != nb {
		return nil, fmt.Errorf("key %q is %d bytes, want %d for %d bits", s, len(buf), nb, n)
	}
	key := make([]bool, n)
	for i := range key {
		key[i] = buf[nb-1-i/8]&(1<<(i%8)) != 0
	}
	for i := n; i < nb*8; i++ {
		if buf[nb-1-i/8]&(1<<(i%8)) != 0 {
			return nil, fmt.Errorf("key %q sets bit %d beyond the %d-bit key", s, i, n)
		}
	}
	return key, nil
}

// KeyFromSeed derives a deterministic n-bit key from a seed via
// splitmix64, the repo's standard seeding mix.
func KeyFromSeed(seed int64, n int) []bool {
	key := make([]bool, n)
	x := uint64(seed)
	var w uint64
	for i := range key {
		if i%64 == 0 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			w = z ^ (z >> 31)
		}
		key[i] = w&(1<<(i%64)) != 0
	}
	return key
}
