package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/reportdiff"
	"repro/internal/rsn"
)

// DeltaRequest is the JSON body of POST /v1/analyses/{id}/delta: an
// edit script applied against the session of a finished analysis.
type DeltaRequest struct {
	Script *rsn.EditScript `json:"script"`
	// Priority and TimeoutMS behave like their AnalysisRequest
	// counterparts.
	Priority  int   `json:"priority,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// deltaKey derives the content address of a delta analysis from the
// base analysis's key and the script's canonical hash — two
// submissions share a key (and therefore a cache slot and a coalesced
// job) exactly when base and canonicalized script agree.
func deltaKey(baseKey string, script *rsn.EditScript) string {
	h := netlist.NewHasher()
	h.Section("serve.delta")
	h.Str(baseKey)
	script.AppendCanonical(h)
	return h.SumHex()
}

// contentKey strips any scheduler decoration ("#profile-...", "#delta")
// from a job key, recovering the content address the result is stored
// under.
func contentKey(key string) string {
	if i := strings.IndexByte(key, '#'); i >= 0 {
		return key[:i]
	}
	return key
}

// isContentKey reports whether id looks like a raw content address
// (lowercase hex SHA-256) — the restart-resume form of the {id} path
// element, used when the job records of a previous process life are
// gone but the store still has the session.
func isContentKey(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// resolveBaseKey maps the {id} path element of a delta submission to
// the base analysis's content key and display label. id is either a
// job ID (the job must be done) or a raw content key.
func (s *Server) resolveBaseKey(id string) (key, label string, code int, err error) {
	st, serr := s.sched.Status(id)
	if serr == nil {
		if st.State != StateDone {
			return "", "", http.StatusConflict,
				fmt.Errorf("analysis %s is %s; deltas build on finished analyses", id, st.State)
		}
		return contentKey(st.Key), st.Label, 0, nil
	}
	if isContentKey(id) {
		return id, "analysis " + shortKey(id), 0, nil
	}
	return "", "", http.StatusNotFound, fmt.Errorf("unknown analysis %q", id)
}

// handleDelta resolves, caches or schedules one delta analysis. The
// response shapes mirror handleSubmit: 200 on a store hit, 202 when
// queued or coalesced, 409 when the base is unfinished or has no
// session, plus the usual 429/503 backpressure.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	baseKey, baseLabel, code, err := s.resolveBaseKey(r.PathValue("id"))
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	var req DeltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Script == nil || len(req.Script.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "delta request needs a script with at least one op")
		return
	}
	script, err := req.Script.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Added registers allocate their flip-flops when the job applies
	// the script, so a script too large for any base is refused here;
	// the job checks again against the base's own scan FFs.
	if err := checkScanFFCap(script, 0, s.cfg.maxScanFFs()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.hasSession(baseKey) {
		writeError(w, http.StatusConflict,
			"analysis %s has no session to apply a delta to (benchmark-form submissions and memory-evicted sessions cannot take deltas)",
			shortKey(baseKey))
		return
	}
	scriptHash, err := script.CanonicalHash()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a := &analysis{
		key:        deltaKey(baseKey, script),
		label:      fmt.Sprintf("%s+%dop", baseLabel, len(script.Ops)),
		baseKey:    baseKey,
		script:     script,
		scriptHash: scriptHash,
	}
	s.serveOrSchedule(w, r, a, req.Priority, req.TimeoutMS)
}

// checkScanFFCap refuses a canonical script whose add-register ops
// would grow a network of base scan flip-flops past limit. Each length
// is compared with the room left, so no sum can overflow.
func checkScanFFCap(script *rsn.EditScript, base, limit int) error {
	room := limit - base
	for _, op := range script.Ops {
		if op.Op != rsn.OpAddRegister {
			continue
		}
		if op.Len > room {
			return fmt.Errorf("script adds registers past the scan-FF cap (%d)", limit)
		}
		room -= op.Len
	}
	return nil
}

// serveOrSchedule answers a resolved submission from the store (200,
// a finished "hit" record) or submits it and writes the uniform
// submission responses (202 queued/coalesced, 429 full, 503 draining).
// A profile request skips the store: the point is to watch a real run.
// The request context carries the submission's identity onto the job.
func (s *Server) serveOrSchedule(w http.ResponseWriter, r *http.Request, a *analysis, priority int, timeoutMS int64) {
	if a.profile == "" {
		if data, ok := s.store.Get(a.key); ok {
			writeJSON(w, http.StatusOK, s.status(s.sched.InsertFinished(r.Context(), a.key, a.label, "hit", data)))
			return
		}
	}
	// A non-positive timeout means none beyond the server's cap.
	timeout := time.Duration(timeoutMS) * time.Millisecond
	j, joined, err := s.sched.Submit(r.Context(), a.schedKey(), a.label, priority, timeout, a)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new analyses")
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "analysis queue full, retry later")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if joined {
		writeJSON(w, http.StatusAccepted, s.statusAs(j, "coalesced"))
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// parentReport extracts the run report stored under the base key —
// either a plain run-report document (the chain's root) or the report
// embedded in a previous delta document (mid-chain). The lookup is
// internal, so it counts neither a hit nor a miss.
func (s *Server) parentReport(baseKey string) (*obs.RunReport, error) {
	data, ok := s.store.find(baseKey, false)
	if !ok {
		return nil, fmt.Errorf("parent report %s not in store", shortKey(baseKey))
	}
	if rep, err := obs.ReadDoc[obs.RunReport](bytes.NewReader(data)); err == nil {
		return rep, nil
	}
	if doc, err := obs.ReadDoc[reportdiff.DeltaDoc](bytes.NewReader(data)); err == nil {
		return doc.Report, nil
	}
	return nil, fmt.Errorf("stored document %s is neither a run report nor a delta report", shortKey(baseKey))
}

// executeDelta runs one delta job: hydrate (or fetch) the base
// session, apply the script and re-secure incrementally, diff against
// the parent report into the delta document, and persist the derived
// session so the chain continues — across process restarts — from this
// delta's state.
func (s *Server) executeDelta(ctx context.Context, j *Job, a *analysis) (obs.Doc, error) {
	sess, err := s.sessionFor(ctx, a.baseKey)
	if err != nil {
		return nil, err
	}
	// A chain of deltas each within the cap could otherwise grow the
	// session without bound: the derived network is analysed afresh.
	if err := checkScanFFCap(a.script, sess.nw.NumScanFFs(), s.cfg.maxScanFFs()); err != nil {
		return nil, err
	}
	opts := core.Options{
		Mode:        sess.mode,
		Workers:     s.cfg.EngineWorkers,
		Context:     ctx,
		Logger:      s.engLog.With("job", j.ID),
		Stats:       s.stats,
		Tracer:      s.tracer,
		TraceParent: j.span,
	}
	// Serialize delta runs on one session: they share the analysis's
	// incremental cache, and interleaving would thrash it.
	sess.mu.Lock()
	res, err := exp.SecureDelta("rsnserved", sess.label, sess.an, sess.nw, a.script, opts)
	sess.mu.Unlock()
	if err != nil {
		return nil, err
	}
	parent, err := s.parentReport(a.baseKey)
	if err != nil {
		return nil, err
	}
	s.saveSession(&session{
		hydrated: true, key: a.key, label: sess.label, mode: sess.mode,
		iclText: sess.iclText, benchText: sess.benchText,
		scripts: append(append([]*rsn.EditScript{}, sess.scripts...), a.script),
		an:      res.Analysis, nw: res.Derived,
		circuit: sess.circuit, internal: sess.internal, spec: sess.spec,
	})
	return reportdiff.NewDeltaDoc(a.baseKey, a.key, a.scriptHash, len(a.script.Ops), parent, res.Report), nil
}
