package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/serve"
)

// runner executes one workload's operations over its design pool.
type runner interface {
	size() int
	// op runs design i in the given pass (-1 for the warm-up) and checks
	// its outcome against the design's earlier runs.
	op(i, pass int) error
	// check cross-checks the recorded outcomes after the measurement.
	check() error
	// close releases the runner's resources; later calls no-op.
	close() error
}

// workloads maps each workload to the set-up of its runner. Pool sizes
// are large enough that the designs one seed draws cost about what
// another seed's do, so figures vary little from seed to seed.
var workloads = map[string]func(seed int64, p probe) (runner, error){
	"catalog":  offline(catalogSource(1, "BasicSCB", "Mingle", "TreeFlat", "MBIST_1_5_5"), 256),
	"flexscan": offline(catalogSource(0.01, "FlexScan"), 256),
	"scale":    offline(scaleSource(1000), 96),
	"served":   served(catalogSource(1, "BasicSCB", "Mingle", "TreeFlat", "MBIST_1_5_5"), 192),
}

// offlineRunner runs the rsnsec -icl pipeline in-process.
type offlineRunner struct {
	pool  []design
	tr    *obs.Tracer
	stats *engine.Stats
	// want and secured record each design's first outcome and the
	// network it produced, for the repeat and verifier checks.
	want    []*outcome
	secured []*loaded
}

func offline(src source, n int) func(int64, probe) (runner, error) {
	return func(seed int64, p probe) (runner, error) {
		pool, err := makePool(src, n, seed, false)
		if err != nil {
			return nil, err
		}
		r := &offlineRunner{pool: pool, tr: p.tr, want: make([]*outcome, n), secured: make([]*loaded, n)}
		if p.reg != nil {
			r.stats = engine.NewStatsOn(p.reg)
		}
		return r, nil
	}
}

func (r *offlineRunner) size() int { return len(r.pool) }

func (r *offlineRunner) op(i, _ int) error {
	o, l, err := analyzeOffline(r.pool[i], r.tr, r.stats)
	if err != nil {
		return err
	}
	if r.want[i] == nil {
		r.want[i], r.secured[i] = &o, l
		return nil
	}
	if o != *r.want[i] {
		return fmt.Errorf("%s: repeated analysis gave %v (%s), first gave %v (%s)",
			r.pool[i].name, o, o.network, *r.want[i], r.want[i].network)
	}
	return nil
}

func (r *offlineRunner) check() error {
	for i, l := range r.secured {
		if l == nil {
			continue
		}
		if err := checkVerdict(r.pool[i].name, *r.want[i], l); err != nil {
			return err
		}
	}
	return nil
}

func (r *offlineRunner) close() error { return nil }

// servedRunner runs served sessions against an in-process daemon.
type servedRunner struct {
	pool []design
	tr   *obs.Tracer
	d    *daemon
	want []*servedResult
}

func served(src source, n int) func(int64, probe) (runner, error) {
	return func(seed int64, p probe) (runner, error) {
		pool, err := makePool(src, n, seed, true)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(p.tr, p.reg)
		if err != nil {
			return nil, err
		}
		return &servedRunner{pool: pool, tr: p.tr, d: d, want: make([]*servedResult, n)}, nil
	}
}

func (r *servedRunner) size() int { return len(r.pool) }

func (r *servedRunner) op(i, pass int) error {
	// Each pass submits the design under a new network name, so the
	// first submission of a session always misses the result store.
	ds := r.pool[i].renamed(fmt.Sprintf("%s.p%d", r.pool[i].name, pass+1))
	res, err := r.d.session(ds, r.tr)
	if err != nil {
		return err
	}
	if r.want[i] == nil {
		r.want[i] = &res
		return nil
	}
	if res.base != r.want[i].base || res.delta != r.want[i].delta {
		return fmt.Errorf("%s: repeated session gave %v / %v, first gave %v / %v",
			ds.name, res.base, res.delta, r.want[i].base, r.want[i].delta)
	}
	return nil
}

// check replays every served design through the offline pipeline: the
// daemon's report must match the offline verdict, and its incremental
// delta must match a from-scratch analysis of the edited network.
func (r *servedRunner) check() error {
	for i, got := range r.want {
		if got == nil {
			continue
		}
		ds := r.pool[i]
		o, l, err := analyzeOffline(ds, nil, nil)
		if err != nil {
			return err
		}
		if err := checkVerdict(ds.name, o, l); err != nil {
			return err
		}
		o.network = "" // the daemon's report carries no network
		if o != got.base {
			return fmt.Errorf("%s: daemon reported %v, offline pipeline %v", ds.name, got.base, o)
		}
		base, err := load(ds)
		if err != nil {
			return err
		}
		var req serve.DeltaRequest
		if err := json.Unmarshal([]byte(ds.delta), &req); err != nil {
			return fmt.Errorf("%s: delta request: %w", ds.name, err)
		}
		edited, err := req.Script.Apply(base.nw)
		if err != nil {
			return fmt.Errorf("%s: apply delta: %w", ds.name, err)
		}
		st := edited.Stats()
		rep, err := core.Secure(edited, base.circuit, base.internal, base.spec,
			core.Options{Mode: dep.Exact, Workers: engineWorkers})
		if err != nil {
			return fmt.Errorf("%s: delta from scratch: %w", ds.name, err)
		}
		want, err := fromReport(exp.SecureReport("perfbench", ds.name, dep.Exact, st, rep, nil))
		if err != nil {
			return err
		}
		if want != got.delta {
			return fmt.Errorf("%s: daemon delta reported %v, from-scratch analysis %v", ds.name, got.delta, want)
		}
	}
	return nil
}

func (r *servedRunner) close() error {
	if r.d == nil {
		return nil
	}
	err := r.d.stop()
	r.d = nil
	return err
}
