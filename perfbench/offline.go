package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/verify"
)

// outcome is what one analysis decided: the figures a user reads off the
// run report. Equal inputs must give equal outcomes.
type outcome struct {
	insecureLogic bool
	violating     int
	pure, hybrid  int
	// network is the canonical hash of the secured network ("" for an
	// insecure-logic verdict, which leaves the network unchanged).
	network string
}

func (o outcome) String() string {
	if o.insecureLogic {
		return "insecure circuit logic"
	}
	return fmt.Sprintf("%d violating registers, %d pure + %d hybrid changes", o.violating, o.pure, o.hybrid)
}

// fromReport reads the outcome off a one-row rsnsec.run-report/v1.
func fromReport(r *obs.RunReport) (outcome, error) {
	if len(r.Benchmarks) != 1 {
		return outcome{}, fmt.Errorf("report has %d rows, want 1", len(r.Benchmarks))
	}
	row := r.Benchmarks[0]
	return outcome{
		insecureLogic: row.SkippedInsecureLogic > 0,
		violating:     int(row.AvgViolatingRegs),
		pure:          int(row.AvgPureChanges),
		hybrid:        int(row.AvgHybridChanges),
	}, nil
}

// analyzeOffline is one rsnsec -icl run: parse the design, secure it
// with the full pipeline, encode the run report. The returned network is
// the secured one (the input network on an insecure-logic verdict).
func analyzeOffline(d design, tr *obs.Tracer, stats *engine.Stats) (outcome, *loaded, error) {
	span := tr.Start(nil, "parse")
	l, err := load(d)
	span.End()
	if err != nil {
		return outcome{}, nil, err
	}
	st := l.nw.Stats()
	secured := l.nw.Clone()
	rep, err := core.Secure(secured, l.circuit, l.internal, l.spec,
		core.Options{Mode: dep.Exact, Workers: engineWorkers, Stats: stats, Tracer: tr})
	if err != nil {
		return outcome{}, nil, fmt.Errorf("%s: %w", d.name, err)
	}
	span = tr.Start(nil, "encode")
	doc := exp.SecureReport("perfbench", d.name, dep.Exact, st, rep, nil)
	var buf bytes.Buffer
	err = obs.WriteReport(&buf, doc)
	span.End()
	if err != nil {
		return outcome{}, nil, fmt.Errorf("%s: encode report: %w", d.name, err)
	}
	o, err := fromReport(doc)
	if err != nil {
		return outcome{}, nil, err
	}
	if !rep.InsecureLogic {
		if !rep.Secured {
			return outcome{}, nil, fmt.Errorf("%s: pipeline returned an unsecured network", d.name)
		}
		o.network = rsn.CanonicalHash(secured)
		l.nw = secured
	}
	return o, l, nil
}

// checkVerdict cross-checks one analysis with the repository's
// independent verifier: a secured network must verify secure, and an
// insecure-logic verdict must leave a network the verifier rejects.
func checkVerdict(name string, o outcome, l *loaded) error {
	v := verify.Check(l.nw, l.circuit, l.spec)
	switch {
	case o.insecureLogic && v.Secure:
		return fmt.Errorf("%s: insecure-logic verdict, but the verifier finds the network secure", name)
	case !o.insecureLogic && !v.Secure:
		return fmt.Errorf("%s: secured network fails independent verification (%d leaking flows)", name, len(v.Counterexamples))
	}
	return nil
}
