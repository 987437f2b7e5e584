package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/exp"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/rsn"
)

// AttackRequest is the JSON body of POST /v1/attacks: one obfuscated
// network (inline ICL plus its rsnsec.obfus-overlay/v1 sidecar) to run
// the attack analysis against. The true key — needed to answer the
// attacks' oracle queries — comes from the overlay's embedded key
// field or the explicit key override; a request with neither is
// rejected.
type AttackRequest struct {
	ICL     string          `json:"icl"`
	Overlay json.RawMessage `json:"overlay"`
	// Key overrides the overlay-embedded defender key (KeyHex
	// encoding).
	Key string `json:"key,omitempty"`

	// Attack budgets; zero values use the attack defaults.
	Horizon        int   `json:"horizon,omitempty"`
	MaxIterations  int   `json:"max_iterations,omitempty"`
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	MaxConfigs     int   `json:"max_configs,omitempty"`
	SkipSAT        bool  `json:"skip_sat,omitempty"`
	SkipFlush      bool  `json:"skip_flush,omitempty"`

	// Priority and TimeoutMS behave like their AnalysisRequest
	// counterparts.
	Priority  int   `json:"priority,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// attackRun is a resolved attack submission riding on the analysis
// payload through the scheduler.
type attackRun struct {
	nw   *rsn.Network
	ov   *rsn.Obfuscation
	key  []bool
	opts exp.AttackOptions
}

// attackMetrics are the serve-level attack counters, aggregated across
// jobs on the server registry (per-job numbers stay in the report
// documents).
type attackMetrics struct {
	jobs       *obs.Counter
	satIters   *obs.Counter
	satSolves  *obs.Counter
	satConfl   *obs.Counter
	keysFound  *obs.Counter
	flushBits  *obs.Counter
	flushProbe *obs.Counter
}

func newAttackMetrics(reg *obs.Registry) attackMetrics {
	reg.SetHelp("serve_attack_jobs_total", "Attack-analysis jobs executed to completion.")
	reg.SetHelp("serve_attack_sat_iterations_total", "ScanSAT distinguishing-input refinement iterations across attack jobs.")
	reg.SetHelp("serve_attack_sat_solve_calls_total", "SAT solver invocations across attack jobs.")
	reg.SetHelp("serve_attack_sat_conflicts_total", "SAT solver conflicts across attack jobs.")
	reg.SetHelp("serve_attack_keys_recovered_total", "Attack jobs whose SAT key recovery finished recovered and verified.")
	reg.SetHelp("serve_attack_flush_bits_total", "Key bits recovered algebraically by the flush attack across jobs.")
	reg.SetHelp("serve_attack_flush_probes_total", "Flush-attack oracle probes across attack jobs.")
	return attackMetrics{
		jobs:       reg.Counter("serve_attack_jobs_total"),
		satIters:   reg.Counter("serve_attack_sat_iterations_total"),
		satSolves:  reg.Counter("serve_attack_sat_solve_calls_total"),
		satConfl:   reg.Counter("serve_attack_sat_conflicts_total"),
		keysFound:  reg.Counter("serve_attack_keys_recovered_total"),
		flushBits:  reg.Counter("serve_attack_flush_bits_total"),
		flushProbe: reg.Counter("serve_attack_flush_probes_total"),
	}
}

// resolveAttack validates and materializes one attack submission and
// computes its content address: the canonical network, overlay, true
// key and every budget knob. Identical submissions share a cache slot
// and coalesce onto one in-flight job, like analyses.
func (s *Server) resolveAttack(req *AttackRequest) (*analysis, error) {
	if req.ICL == "" {
		return nil, fmt.Errorf("attack request needs an icl network")
	}
	if len(req.Overlay) == 0 {
		return nil, fmt.Errorf("attack request needs an obfuscation overlay")
	}
	if req.SkipSAT && req.SkipFlush {
		return nil, fmt.Errorf("attack request skips both attacks")
	}
	// Attack analyses never consult the instrument circuit; the loaded
	// design's synthesized one is dropped.
	d, err := icl.Load(req.ICL, "", s.cfg.limits().MaxScanFFs)
	if err != nil {
		return nil, err
	}
	nw := d.Network
	ov, key, err := rsn.ParseObfuscation(req.Overlay, nw)
	if err != nil {
		return nil, err
	}
	if req.Key != "" {
		if key, err = rsn.ParseKeyHex(req.Key, ov.NumKeyBits); err != nil {
			return nil, fmt.Errorf("key: %w", err)
		}
	}
	if key == nil {
		return nil, fmt.Errorf("attack request needs the true key (overlay-embedded or the key field) to answer oracle queries")
	}
	if req.Horizon < 0 || req.MaxIterations < 0 || req.ConflictBudget < 0 || req.MaxConfigs < 0 {
		return nil, fmt.Errorf("attack budgets must be non-negative")
	}
	a := &analysis{
		label:   "attack:" + nw.Name,
		scanFFs: nw.NumScanFFs(),
		atk: &attackRun{
			nw: nw, ov: ov, key: key,
			opts: exp.AttackOptions{
				Horizon:        req.Horizon,
				MaxIterations:  req.MaxIterations,
				ConflictBudget: req.ConflictBudget,
				MaxConfigs:     req.MaxConfigs,
				SkipSAT:        req.SkipSAT,
				SkipFlush:      req.SkipFlush,
				// Timings stay out of served documents so replays of
				// identical submissions are byte-identical.
				IncludeTimings: false,
			},
		},
	}
	h := netlist.NewHasher()
	h.Section("serve.attack")
	nw.AppendCanonical(h)
	ov.AppendCanonical(h)
	h.Str(rsn.KeyHex(key))
	h.Section("attack-budgets")
	h.Int(int64(req.Horizon))
	h.Int(int64(req.MaxIterations))
	h.Int(req.ConflictBudget)
	h.Int(int64(req.MaxConfigs))
	h.Bool(req.SkipSAT)
	h.Bool(req.SkipFlush)
	a.key = h.SumHex()
	return a, nil
}

// handleAttack resolves, caches or schedules one attack analysis. The
// response shapes mirror handleSubmit: 200 on a store hit (the cached
// rsnsec.attack-report/v1 is byte-identical to the first run's), 202
// when queued or coalesced, plus the usual 429/503 backpressure.
func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req AttackRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	a, err := s.resolveAttack(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.atkLog.LogAttrs(r.Context(), slog.LevelDebug, "submit", slog.String("network", a.atk.nw.Name),
		slog.Int("key_bits", a.atk.ov.NumKeyBits), slog.Int("gates", len(a.atk.ov.Gates)),
		slog.Bool("dynamic", a.atk.ov.Dynamic))
	s.serveOrSchedule(w, r, a, req.Priority, req.TimeoutMS)
}

// executeAttack runs one attack job to a serialized
// rsnsec.attack-report/v1 document and stores it under the job's
// content address. Reports are built without wall-clock timings, so a
// replayed submission serves the stored bytes unchanged.
func (s *Server) executeAttack(ctx context.Context, j *Job, a *analysis) ([]byte, error) {
	at := a.atk
	opts := at.opts
	opts.Stats = s.stats
	opts.Tracer = s.tracer
	opts.TraceParent = j.span
	rep, err := exp.RunAttackAnalysis(ctx, "rsnserved", at.nw, at.ov, at.key, opts)
	if err != nil {
		s.atkLog.LogAttrs(ctx, slog.LevelDebug, "failed", slog.String("job", j.ID), slog.String("err", err.Error()))
		return nil, err
	}
	s.atkMetrics.jobs.Inc()
	attrs := []slog.Attr{slog.String("job", j.ID)}
	if sat := rep.SAT; sat != nil {
		s.atkMetrics.satIters.Add(int64(sat.Iterations))
		s.atkMetrics.satSolves.Add(int64(sat.SolveCalls))
		s.atkMetrics.satConfl.Add(sat.Conflicts)
		if sat.Outcome == obfus.OutcomeRecovered && sat.Verified {
			s.atkMetrics.keysFound.Inc()
		}
		attrs = append(attrs, slog.Any("sat", sat.Outcome), slog.Int("iters", sat.Iterations))
	}
	if fl := rep.Flush; fl != nil {
		s.atkMetrics.flushBits.Add(int64(len(fl.RecoveredBits)))
		s.atkMetrics.flushProbe.Add(int64(fl.Probes))
		attrs = append(attrs, slog.Int("flush_rank", fl.Rank))
	}
	s.atkLog.LogAttrs(ctx, slog.LevelDebug, "report", attrs...)
	var buf bytes.Buffer
	if err := obfus.WriteReport(&buf, rep); err != nil {
		return nil, fmt.Errorf("serve: encode attack report: %w", err)
	}
	if err := s.store.Put(a.key, buf.Bytes()); err != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "store put failed",
			slog.String("key", shortKey(a.key)), slog.String("err", err.Error()))
	}
	return buf.Bytes(), nil
}
