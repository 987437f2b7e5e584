package exp

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/rsn"
)

// AttackOptions parameterizes one attack-analysis run against an
// obfuscated network.
type AttackOptions struct {
	// Horizon is the observation window in shift cycles (0 = the
	// network's default).
	Horizon int
	// MaxIterations caps ScanSAT distinguishing-input refinements
	// (0 = the attack's default).
	MaxIterations int
	// ConflictBudget caps total solver conflicts across the refinement
	// loop (0 = unlimited).
	ConflictBudget int64
	// MaxConfigs bounds configuration enumeration (0 = the default).
	MaxConfigs int
	// SkipSAT / SkipFlush drop the corresponding attack from the run
	// (and its section from the report).
	SkipSAT   bool
	SkipFlush bool
	// IncludeTimings stamps wall-clock durations into the report's
	// TimeNS fields. Leave false when the report feeds a
	// content-addressed store: without timings, reports of identical
	// runs are byte-identical.
	IncludeTimings bool
	// Stats, when non-nil, accumulates per-stage engine instrumentation
	// under the "attack-sat" and "attack-flush" stages.
	Stats *engine.Stats
	// Tracer/TraceParent nest one span per attack stage under the
	// caller's span.
	Tracer      *obs.Tracer
	TraceParent *obs.Span
}

// RunAttackAnalysis executes the attack stages of the obfuscation
// study against one (network, overlay, key) triple: the ScanSAT-style
// key recovery and the GF(2) flush analysis, assembled into the
// schema-versioned rsnsec.attack-report/v1 document.
func RunAttackAnalysis(ctx context.Context, tool string, nw *rsn.Network, ov *rsn.Obfuscation, trueKey []bool, opts AttackOptions) (*obfus.Report, error) {
	if opts.SkipSAT && opts.SkipFlush {
		return nil, fmt.Errorf("exp: attack analysis with both attacks skipped")
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = obfus.DefaultHorizon(nw)
	}
	var (
		kr *obfus.KeyRecoveryResult
		fl *obfus.FlushResult
		// Durations are tracked outside the results so served reports
		// can omit them.
		satNS, flushNS int64
	)
	eng := engine.Options{Stats: opts.Stats, Tracer: opts.Tracer, TraceParent: opts.TraceParent}
	if !opts.SkipSAT {
		stage := eng.Begin("attack-sat", obs.Str("network", nw.Name), obs.Int("key_bits", int64(ov.NumKeyBits))).Timed()
		res, err := obfus.KeyRecovery(ctx, nw, ov, trueKey, obfus.KeyRecoveryOptions{
			Horizon:        horizon,
			MaxIterations:  opts.MaxIterations,
			ConflictBudget: opts.ConflictBudget,
			MaxConfigs:     opts.MaxConfigs,
		})
		if err == nil {
			stage.SetAttrs(obs.Str("outcome", res.Outcome), obs.Int("iterations", int64(res.Iterations)))
		}
		satNS = stage.End().Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("exp: key recovery: %w", err)
		}
		kr = res
	}
	if !opts.SkipFlush {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stage := eng.Begin("attack-flush", obs.Str("network", nw.Name), obs.Int("key_bits", int64(ov.NumKeyBits))).Timed()
		res, err := obfus.FlushAttack(nw, ov, trueKey, obfus.FlushOptions{
			Horizon:    horizon,
			MaxConfigs: opts.MaxConfigs,
		})
		if err == nil {
			stage.SetAttrs(obs.Int("rank", int64(res.Rank)))
		}
		flushNS = stage.End().Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("exp: flush attack: %w", err)
		}
		fl = res
	}
	rep := obfus.NewReport(tool, nw, ov, horizon, kr, fl)
	if opts.IncludeTimings {
		if rep.SAT != nil {
			rep.SAT.TimeNS = satNS
		}
		if rep.Flush != nil {
			rep.Flush.TimeNS = flushNS
		}
	}
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("exp: attack report: %w", err)
	}
	return rep, nil
}
