package exp

import (
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/rsn"
)

// DeltaResult is the outcome of one incremental (edit-script) analysis
// run.
type DeltaResult struct {
	// Derived is the edited input network — the base wiring with the
	// script applied, before the resolution pipeline mutated anything.
	// It is the base of the next delta in a session chain.
	Derived *rsn.Network
	// Analysis is valid for Derived: the caller's analysis when the
	// script kept the register set, or the fresh one built by the
	// structural fallback. Either way its cache holds a fixed point
	// from this run, ready to seed the next delta.
	Analysis *hybrid.Analysis
	// Structural reports that the script changed the register set, so
	// the fixed infrastructure was recomputed from scratch.
	Structural bool
	// Core is the pipeline outcome on (a clone of) Derived.
	Core *core.Report
	// Report is Core rendered as a one-row rsnsec.run-report/v1.
	Report *obs.RunReport
}

// SecureDelta applies an edit script to base and runs the resolution
// pipeline on the derived network, reusing an's fixed infrastructure
// (dependency matrices, cached attribute fixed point) whenever the
// script only rewires: those runs skip the dependency calculation
// entirely and re-propagate only the dirty cone of the edit. Scripts
// that add registers fall back to a fresh analysis over the derived
// network (ErrStructuralDelta path) — correct, just not incremental.
// The pipeline runs on a clone, so the returned Derived network keeps
// the pre-resolution wiring for chaining further deltas.
func SecureDelta(tool, label string, an *hybrid.Analysis, base *rsn.Network, script *rsn.EditScript, opts core.Options) (*DeltaResult, error) {
	derived, err := script.Apply(base)
	if err != nil {
		return nil, err
	}
	res := &DeltaResult{Derived: derived, Analysis: an}
	run := derived.Clone()
	if len(derived.Registers) == an.NumRegisters() {
		res.Core, err = core.SecureWithAnalysis(an, run, opts)
	} else {
		// Register set changed (or lengths diverged): the existing
		// combined index space cannot absorb the edit. Pay one fresh
		// dependency calculation and keep incrementality from here on.
		res.Structural = true
		opts.Mode = an.Mode
		res.Core, err = core.Secure(run, an.Circuit, an.InternalFFs(), an.Spec, opts)
		if err == nil {
			res.Analysis = res.Core.Analysis
		}
	}
	if err != nil {
		return nil, err
	}
	res.Report = SecureReport(tool, label, an.Mode, derived.Stats(), res.Core, nil)
	return res, nil
}
