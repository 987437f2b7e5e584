package obfus

import (
	"fmt"

	"repro/internal/rsn"
)

// ReportSchema is the attack-report schema identifier. Bump the suffix
// on any incompatible field change; readers reject unknown versions.
const ReportSchema = "rsnsec.attack-report/v1"

// Report is the machine-readable outcome of one attack-analysis run
// against an obfuscated network: what the overlay looks like, whether
// the SAT attack collapsed the key space, and how much of the key the
// flush attack recovers algebraically. Reports are built
// input-deterministically (solver statistics are deterministic for a
// given formula); wall-clock timings are optional so served documents
// stay byte-identical across replays.
type Report struct {
	Schema string `json:"schema"`
	// Tool identifies the producer (e.g. "rsnsec").
	Tool    string        `json:"tool,omitempty"`
	Network NetworkInfo   `json:"network"`
	Overlay OverlayInfo   `json:"overlay"`
	Horizon int           `json:"horizon"`
	SAT     *SATSection   `json:"sat,omitempty"`
	Flush   *FlushSection `json:"flush,omitempty"`
}

// NetworkInfo describes the attacked network.
type NetworkInfo struct {
	Name      string `json:"name"`
	Registers int    `json:"registers"`
	ScanFFs   int    `json:"scan_ffs"`
	Muxes     int    `json:"muxes"`
}

// OverlayInfo describes the obfuscation overlay under attack.
type OverlayInfo struct {
	KeyBits  int  `json:"key_bits"`
	XORGates int  `json:"xor_gates"`
	MuxGates int  `json:"mux_gates"`
	Dynamic  bool `json:"dynamic,omitempty"`
}

// SATSection reports the ScanSAT-style key recovery.
type SATSection struct {
	Outcome        string `json:"outcome"` // recovered | exhausted
	RecoveredKey   string `json:"recovered_key"`
	Verified       bool   `json:"verified"`
	Iterations     int    `json:"iterations"`
	SolveCalls     int    `json:"solve_calls"`
	DeterminedBits int    `json:"determined_bits"`
	Vars           int    `json:"vars"`
	Clauses        int    `json:"clauses"`
	Decisions      int64  `json:"decisions"`
	Propagations   int64  `json:"propagations"`
	Conflicts      int64  `json:"conflicts"`
	Restarts       int64  `json:"restarts"`
	TimeNS         int64  `json:"time_ns,omitempty"`
}

// FlushSection reports the GF(2) flush attack.
type FlushSection struct {
	Applicable      bool   `json:"applicable"`
	Reason          string `json:"reason,omitempty"`
	Probes          int    `json:"probes"`
	AmbiguousProbes int    `json:"ambiguous_probes,omitempty"`
	Equations       int    `json:"equations"`
	Rank            int    `json:"rank"`
	RecoveredBits   []int  `json:"recovered_bits,omitempty"`
	RecoveredKey    string `json:"recovered_key,omitempty"`
	Correct         bool   `json:"correct"`
	TimeNS          int64  `json:"time_ns,omitempty"`
}

// NewReport assembles a report from attack results (either may be nil
// when the corresponding attack was skipped).
func NewReport(tool string, nw *rsn.Network, ov *rsn.Obfuscation, horizon int, kr *KeyRecoveryResult, fl *FlushResult) *Report {
	st := nw.Stats()
	r := &Report{
		Schema:  ReportSchema,
		Tool:    tool,
		Network: NetworkInfo{Name: nw.Name, Registers: st.Registers, ScanFFs: st.ScanFFs, Muxes: st.Muxes},
		Overlay: OverlayInfo{KeyBits: ov.NumKeyBits, Dynamic: ov.Dynamic},
		Horizon: horizon,
	}
	for _, g := range ov.Gates {
		switch g.Kind {
		case rsn.KeyXOR:
			r.Overlay.XORGates++
		case rsn.KeyMux:
			r.Overlay.MuxGates++
		}
	}
	if kr != nil {
		r.SAT = &SATSection{
			Outcome:        kr.Outcome,
			RecoveredKey:   rsn.KeyHex(kr.Key),
			Verified:       kr.Verified,
			Iterations:     kr.Iterations,
			SolveCalls:     kr.SolveCalls,
			DeterminedBits: kr.DeterminedBits,
			Vars:           kr.Vars,
			Clauses:        kr.Clauses,
			Decisions:      kr.Stats.Decisions,
			Propagations:   kr.Stats.Propagations,
			Conflicts:      kr.Stats.Conflicts,
			Restarts:       kr.Stats.Restarts,
		}
	}
	if fl != nil {
		r.Flush = &FlushSection{
			Applicable:      fl.Applicable,
			Reason:          fl.Reason,
			Probes:          fl.Probes,
			AmbiguousProbes: fl.AmbiguousProbes,
			Equations:       fl.Equations,
			Rank:            fl.Rank,
			RecoveredBits:   fl.RecoveredBits,
			Correct:         fl.Correct,
		}
		if len(fl.RecoveredBits) > 0 {
			r.Flush.RecoveredKey = rsn.KeyHex(fl.RecoveredKey)
		}
	}
	return r
}

// Validate checks structural invariants of a report.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("attack report: nil")
	}
	if r.Schema != ReportSchema {
		return fmt.Errorf("attack report: schema %q, this reader wants %q", r.Schema, ReportSchema)
	}
	if r.Network.Registers < 0 || r.Network.ScanFFs < 0 || r.Network.Muxes < 0 {
		return fmt.Errorf("attack report: negative network stats")
	}
	if r.Overlay.KeyBits < 1 {
		return fmt.Errorf("attack report: overlay has %d key bits", r.Overlay.KeyBits)
	}
	if r.Overlay.XORGates < 0 || r.Overlay.MuxGates < 0 || r.Overlay.XORGates+r.Overlay.MuxGates < 1 {
		return fmt.Errorf("attack report: overlay gate counts invalid")
	}
	if r.Horizon < 1 {
		return fmt.Errorf("attack report: horizon %d", r.Horizon)
	}
	if r.SAT == nil && r.Flush == nil {
		return fmt.Errorf("attack report: no attack sections")
	}
	if s := r.SAT; s != nil {
		if s.Outcome != OutcomeRecovered && s.Outcome != OutcomeExhausted {
			return fmt.Errorf("attack report: sat outcome %q", s.Outcome)
		}
		if _, err := rsn.ParseKeyHex(s.RecoveredKey, r.Overlay.KeyBits); err != nil {
			return fmt.Errorf("attack report: sat recovered key: %w", err)
		}
		for name, v := range map[string]int64{
			"iterations": int64(s.Iterations), "solve_calls": int64(s.SolveCalls),
			"determined_bits": int64(s.DeterminedBits), "vars": int64(s.Vars),
			"clauses": int64(s.Clauses), "decisions": s.Decisions,
			"propagations": s.Propagations, "conflicts": s.Conflicts,
			"restarts": s.Restarts, "time_ns": s.TimeNS,
		} {
			if v < 0 {
				return fmt.Errorf("attack report: sat %s negative", name)
			}
		}
		if s.DeterminedBits > r.Overlay.KeyBits {
			return fmt.Errorf("attack report: sat determined %d of %d key bits", s.DeterminedBits, r.Overlay.KeyBits)
		}
	}
	if f := r.Flush; f != nil {
		if f.Probes < 0 || f.AmbiguousProbes < 0 || f.Equations < 0 || f.Rank < 0 || f.TimeNS < 0 {
			return fmt.Errorf("attack report: flush counters negative")
		}
		if f.Rank > f.Equations {
			return fmt.Errorf("attack report: flush rank %d exceeds %d equations", f.Rank, f.Equations)
		}
		if len(f.RecoveredBits) > r.Overlay.KeyBits {
			return fmt.Errorf("attack report: flush recovered %d of %d key bits", len(f.RecoveredBits), r.Overlay.KeyBits)
		}
		for _, b := range f.RecoveredBits {
			if b < 0 || b >= r.Overlay.KeyBits {
				return fmt.Errorf("attack report: flush recovered bit %d out of range", b)
			}
		}
		if f.RecoveredKey != "" {
			if _, err := rsn.ParseKeyHex(f.RecoveredKey, r.Overlay.KeyBits); err != nil {
				return fmt.Errorf("attack report: flush recovered key: %w", err)
			}
		}
	}
	return nil
}
