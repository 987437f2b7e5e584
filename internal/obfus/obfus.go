// Package obfus models key-gated scan obfuscation and the attacks that
// break it. It is the dual-use counterpart of the paper's defensive
// analysis: the rsn package gains key-gated primitives (rsn.Obfuscation)
// and this package answers whether they actually withstand the known
// oracle-guided attacks.
//
// Two attackers are implemented:
//
//   - KeyRecovery, a ScanSAT-style SAT attack: the keyed shift
//     behavior is unrolled into CNF twice (two key copies sharing the
//     configuration and scan-in stream), and distinguishing input
//     patterns are iteratively refined against a simulation oracle
//     until the remaining key space is observationally collapsed or a
//     budget is hit.
//
//   - FlushAttack, a GF(2) algebraic flush attack: flush responses are
//     linear in the key bits of XOR gates (even under a dynamic LFSR
//     schedule, which is itself linear), so key bits fall to plain
//     rank analysis over the flush response matrix — no SAT involved.
//
// BruteForce enumerates the key space outright and is the ground truth
// the SAT attack is differentially tested against: both recover the
// smallest key observationally equivalent to the true key within the
// same horizon, so their answers must be bit-identical.
package obfus

import (
	"fmt"

	"repro/internal/rsn"
)

// DefaultMaxConfigs bounds exhaustive configuration enumeration during
// equivalence checks and flush probing.
const DefaultMaxConfigs = 256

// DefaultHorizon returns the default observation window for a network:
// twice the scan length (enough for any bit to traverse the longest
// path and emerge) plus slack, capped to keep unrolled CNFs bounded.
func DefaultHorizon(nw *rsn.Network) int {
	h := 2*nw.NumScanFFs() + 2
	if h > 256 {
		h = 256
	}
	if h < 8 {
		h = 8
	}
	return h
}

// enumConfigs enumerates attacker-visible configurations in mixed-radix
// counting order (mux 0 the fastest digit), at most max of them. The
// second result reports whether the space was truncated.
func enumConfigs(nw *rsn.Network, max int) ([]rsn.Config, bool) {
	if max < 1 {
		max = 1
	}
	cfgs := []rsn.Config{nw.NewConfig()}
	for {
		last := cfgs[len(cfgs)-1]
		next := make(rsn.Config, len(last))
		copy(next, last)
		carry := true
		for m := 0; m < len(next) && carry; m++ {
			next[m]++
			if next[m] < len(nw.Muxes[m].Inputs) {
				carry = false
			} else {
				next[m] = 0
			}
		}
		if carry || len(next) == 0 {
			return cfgs, false
		}
		if len(cfgs) == max {
			return cfgs, true
		}
		cfgs = append(cfgs, next)
	}
}

// laneSim shifts up to 64 independent scan-in streams ("lanes") through
// a keyed network at once, one uint64 word per scan cell. The key and
// the configuration are shared across lanes — both are data-independent,
// so the active path and the key schedule are common to all lanes and
// the whole shift semantics vectorizes bitwise. Semantics mirror
// rsn.KeyedSimulator exactly.
type laneSim struct {
	nw      *rsn.Network
	ov      *rsn.Obfuscation
	state   [][]uint64
	ks      []bool
	regGate []int // per register: gating key bit or -1
	muxGate []int // per mux: gating key bit or -1
}

func newLaneSim(nw *rsn.Network, ov *rsn.Obfuscation, key []bool) *laneSim {
	s := &laneSim{
		nw:      nw,
		ov:      ov,
		state:   make([][]uint64, len(nw.Registers)),
		ks:      append([]bool(nil), key...),
		regGate: make([]int, len(nw.Registers)),
		muxGate: make([]int, len(nw.Muxes)),
	}
	for i := range s.state {
		s.state[i] = make([]uint64, nw.Registers[i].Len)
	}
	for i := range s.regGate {
		s.regGate[i] = -1
	}
	for i := range s.muxGate {
		s.muxGate[i] = -1
	}
	for _, g := range ov.Gates {
		switch g.Kind {
		case rsn.KeyXOR:
			s.regGate[g.Elem] = g.Bit
		case rsn.KeyMux:
			s.muxGate[g.Elem] = g.Bit
		}
	}
	return s
}

// path resolves the active path under the current key state.
func (s *laneSim) path(cfg rsn.Config) ([]rsn.PathElement, error) {
	eff := make(rsn.Config, len(s.nw.Muxes))
	for m := range s.nw.Muxes {
		sel := 0
		if m < len(cfg) {
			sel = cfg[m]
		}
		if b := s.muxGate[m]; b >= 0 && s.ks[b] {
			sel ^= 1
		}
		eff[m] = sel
	}
	return s.nw.ActivePath(eff)
}

// shiftAlong runs one shift cycle along a pre-resolved path and
// advances the key schedule.
func (s *laneSim) shiftAlong(path []rsn.PathElement, in uint64) uint64 {
	var out uint64
	if len(path) == 0 {
		out = in
	} else {
		last := path[len(path)-1]
		out = s.state[last.Register][last.FF]
		if b := s.regGate[last.Register]; b >= 0 && s.ks[b] {
			out = ^out
		}
		for k := len(path) - 1; k >= 1; k-- {
			prev := path[k-1]
			v := s.state[prev.Register][prev.FF]
			if prev.Register != path[k].Register {
				if b := s.regGate[prev.Register]; b >= 0 && s.ks[b] {
					v = ^v
				}
			}
			s.state[path[k].Register][path[k].FF] = v
		}
		s.state[path[0].Register][path[0].FF] = in
	}
	s.ks = s.ov.NextKeyState(s.ks)
	return out
}

// respond runs len(ins) shift cycles from the all-zero state and
// returns the scan-out words. For static schedules the path is
// resolved once; dynamic schedules re-resolve it every cycle, since
// gated mux selects track the LFSR.
func respond(nw *rsn.Network, ov *rsn.Obfuscation, key []bool, cfg rsn.Config, ins []uint64) ([]uint64, error) {
	s := newLaneSim(nw, ov, key)
	outs := make([]uint64, len(ins))
	var fixed []rsn.PathElement
	static := !ov.Dynamic
	if static {
		p, err := s.path(cfg)
		if err != nil {
			return nil, err
		}
		fixed = p
	}
	for t, in := range ins {
		p := fixed
		if !static {
			var err error
			p, err = s.path(cfg)
			if err != nil {
				return nil, err
			}
		}
		outs[t] = s.shiftAlong(p, in)
	}
	return outs, nil
}

// basisChunk fills the input words for basis streams [s0, s0+lanes):
// stream 0 is all-zero, stream j >= 1 is the one-hot impulse at cycle
// j-1. Because the shift data path is affine in the scan-in stream for
// any fixed key and configuration, agreement on these T+1 streams
// implies agreement on every stream of length T.
func basisChunk(T, s0, lanes int) []uint64 {
	ins := make([]uint64, T)
	for l := 0; l < lanes; l++ {
		j := s0 + l
		if j >= 1 && j-1 < T {
			ins[j-1] |= 1 << l
		}
	}
	return ins
}

// equivalent reports whether keys a and b are observationally
// equivalent within horizon T: identical scan-out streams for every
// enumerated configuration and every scan-in stream of length T.
func equivalent(nw *rsn.Network, ov *rsn.Obfuscation, a, b []bool, cfgs []rsn.Config, T int) (bool, error) {
	streams := T + 1
	for _, cfg := range cfgs {
		for s0 := 0; s0 < streams; s0 += 64 {
			lanes := streams - s0
			if lanes > 64 {
				lanes = 64
			}
			ins := basisChunk(T, s0, lanes)
			ra, err := respond(nw, ov, a, cfg, ins)
			if err != nil {
				return false, err
			}
			rb, err := respond(nw, ov, b, cfg, ins)
			if err != nil {
				return false, err
			}
			mask := ^uint64(0)
			if lanes < 64 {
				mask = 1<<lanes - 1
			}
			for t := range ra {
				if (ra[t]^rb[t])&mask != 0 {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// keyOfUint expands the low n bits of v into a key.
func keyOfUint(v uint64, n int) []bool {
	key := make([]bool, n)
	for i := range key {
		key[i] = v&(1<<i) != 0
	}
	return key
}

// checkAttackable validates the network/overlay pair for attack runs.
func checkAttackable(nw *rsn.Network, ov *rsn.Obfuscation) error {
	if err := nw.Validate(); err != nil {
		return err
	}
	if err := ov.Validate(nw); err != nil {
		return err
	}
	if !nw.OutSrc.IsValid() {
		return fmt.Errorf("obfus: network has no scan-out")
	}
	return nil
}
