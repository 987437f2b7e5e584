package hybrid

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/rsn"
)

// ErrStructuralDelta reports an edit script that changes the register
// set. The fixed infrastructure of an Analysis — the combined index
// space, the bridged path relation — is built over a concrete
// register list, so such deltas need a fresh Analysis over the derived
// network instead of an incremental repair (exp.SecureDelta does this
// fallback automatically).
var ErrStructuralDelta = errors.New("hybrid: delta changes the register set; a fresh Analysis is required")

// compatible checks that a network shares the analysis's register set
// (count and lengths) — the precondition for its indices to be valid in
// the combined index space.
func (a *Analysis) compatible(nw *rsn.Network) error {
	if len(nw.Registers) != len(a.regOffset) {
		return fmt.Errorf("%w (analysis has %d registers, network %d)",
			ErrStructuralDelta, len(a.regOffset), len(nw.Registers))
	}
	for r := range nw.Registers {
		if nw.Registers[r].Len != a.regLen[r] {
			return fmt.Errorf("%w (register R%d length %d, analysis %d)",
				ErrStructuralDelta, r, nw.Registers[r].Len, a.regLen[r])
		}
	}
	return nil
}

// ApplyDelta applies an edit script to base and returns the derived
// network together with its violations, computed incrementally from the
// cached fixed point (it is repaired for the edit; see delta for the
// exactness argument). Scripts that change the register set return
// ErrStructuralDelta along with the derived network, so callers can
// fall back to a fresh Analysis.
func (a *Analysis) ApplyDelta(base *rsn.Network, script *rsn.EditScript) (*rsn.Network, []Violation, error) {
	derived, err := script.Apply(base)
	if err != nil {
		return nil, nil, err
	}
	if err := a.compatible(derived); err != nil {
		return derived, nil, err
	}
	return derived, a.Violations(derived), nil
}

// WithEngine returns a shallow copy of the analysis running under a
// different engine configuration (workers, stats, tracing, context).
// The copy shares the path relation AND the propagation cache, so
// per-request engine options can be threaded through a long-lived
// session analysis without losing incremental state.
func (a *Analysis) WithEngine(opts engine.Options) *Analysis {
	cp := *a
	cp.eng = opts
	return &cp
}

// InternalFFs recovers the internal (bridged-away) circuit flip-flops
// the analysis was built with — what a caller needs to rebuild an
// equivalent Analysis after a structural delta.
func (a *Analysis) InternalFFs() []netlist.FFID {
	var out []netlist.FFID
	for i := 0; i < a.nCirc; i++ {
		if !a.Denoted[i] {
			out = append(out, netlist.FFID(i))
		}
	}
	return out
}

// NumRegisters returns the register count of the analysis's fixed
// infrastructure.
func (a *Analysis) NumRegisters() int { return len(a.regOffset) }
