package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// sessionSchema versions the persisted session record.
const sessionSchema = "rsnsec.session/v1"

// sessionSuffix decorates a content key into its session-record store
// key; the disk tier then writes <key>.session.json next to the
// report, via the same atomic temp-file + rename path.
const sessionSuffix = ".session"

// sessionRecord is the durable form of an analysis session: what the
// live state cannot be derived from. The sources (ICL + optional
// bench) re-parse into the same network, circuit and flip-flop
// numbering, and the script chain replays the base network into the
// session's derived wiring; the analysis and its fixed point are
// rebuilt from them. Records written with a "snapshot" field (an
// earlier form that persisted the fixed point) still decode: the JSON
// decoder ignores the field.
type sessionRecord struct {
	Schema  string            `json:"schema"`
	Key     string            `json:"key"`
	Label   string            `json:"label"`
	Mode    string            `json:"mode"`
	ICL     string            `json:"icl"`
	Bench   string            `json:"bench,omitempty"`
	Scripts []*rsn.EditScript `json:"scripts,omitempty"`
}

// session is the live state of one analysis a delta can build on. The
// mutex serializes hydration and delta runs on the same session; the
// analysis pointer may be shared along a delta chain (every derived
// session of a wiring-only chain reuses one fixed infrastructure).
type session struct {
	mu       sync.Mutex
	hydrated bool

	key       string
	label     string
	mode      dep.Mode
	iclText   string
	benchText string
	scripts   []*rsn.EditScript

	an       *hybrid.Analysis
	nw       *rsn.Network // derived input wiring (pre-resolution)
	circuit  *netlist.Netlist
	internal []netlist.FFID
	spec     *secspec.Spec

	lastUse time.Time // guarded by Server.sessMu
}

func modeName(m dep.Mode) string {
	if m == dep.StructuralApprox {
		return "structural"
	}
	return "exact"
}

// maxSessions resolves the live-session cap.
func (c *Config) maxSessions() int {
	if c.MaxSessions > 0 {
		return c.MaxSessions
	}
	return 16
}

// registerSession installs a live session and evicts the
// least-recently-used hydrated session beyond the cap. Evicted
// sessions stay resumable through their persisted records.
func (s *Server) registerSession(sess *session) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess.lastUse = time.Now()
	s.sessions[sess.key] = sess
	for len(s.sessions) > s.cfg.maxSessions() {
		var oldest *session
		for _, cand := range s.sessions {
			if cand == sess || !cand.hydrated {
				continue
			}
			if oldest == nil || cand.lastUse.Before(oldest.lastUse) {
				oldest = cand
			}
		}
		if oldest == nil {
			return
		}
		delete(s.sessions, oldest.key)
	}
}

// saveSession persists the session record through the store (memory
// LRU + atomic disk write when a store dir is configured) and
// registers the live session.
func (s *Server) saveSession(sess *session) {
	rec := sessionRecord{
		Schema: sessionSchema, Key: sess.key, Label: sess.label,
		Mode: modeName(sess.mode), ICL: sess.iclText, Bench: sess.benchText,
		Scripts: sess.scripts,
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		s.log.Warn("session encode failed", "key", shortKey(sess.key), "err", err)
		return
	}
	if err := s.store.Put(sess.key+sessionSuffix, data); err != nil {
		s.log.Warn("session put failed", "key", shortKey(sess.key), "err", err)
	}
	s.registerSession(sess)
}

// hasSession reports whether a delta can build on the key: a live
// session exists or a persisted record is resident (memory or disk).
func (s *Server) hasSession(key string) bool {
	s.sessMu.Lock()
	_, ok := s.sessions[key]
	s.sessMu.Unlock()
	return ok || s.store.Contains(key+sessionSuffix)
}

// sessionFor returns the hydrated live session of a content key,
// re-hydrating it from the persisted record when needed: re-parse the
// recorded sources, replay the script chain and rebuild the dependency
// analysis once. The first run then propagates the fixed point from
// scratch, and the chain continues incrementally from there with the
// same results as if the process had never stopped. ctx cancels the
// dependency rebuild.
func (s *Server) sessionFor(ctx context.Context, key string) (*session, error) {
	s.sessMu.Lock()
	sess, ok := s.sessions[key]
	if !ok {
		sess = &session{key: key}
		s.sessions[key] = sess
	}
	sess.lastUse = time.Now()
	s.sessMu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.hydrated {
		return sess, nil
	}
	if err := s.hydrateSession(ctx, sess); err != nil {
		// Drop the stub so a later delta retries from the record.
		s.sessMu.Lock()
		if s.sessions[key] == sess {
			delete(s.sessions, key)
		}
		s.sessMu.Unlock()
		return nil, err
	}
	sess.hydrated = true
	return sess, nil
}

// hydrateSession fills a stub session from its persisted record, read
// without counting a store hit or miss. Called with sess.mu held.
func (s *Server) hydrateSession(ctx context.Context, sess *session) error {
	data, ok := s.store.find(sess.key+sessionSuffix, false)
	if !ok {
		return fmt.Errorf("no session record for analysis %s (memory-only store, or the base was never analyzed here)", shortKey(sess.key))
	}
	var rec sessionRecord
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return fmt.Errorf("session record %s: %w", shortKey(sess.key), err)
	}
	if rec.Schema != sessionSchema {
		return fmt.Errorf("session record %s: schema %q, want %q", shortKey(sess.key), rec.Schema, sessionSchema)
	}
	mode, err := dep.ParseMode(rec.Mode)
	if err != nil {
		return fmt.Errorf("session record %s: %w", shortKey(sess.key), err)
	}
	// The record passed the server's cap when it was first analyzed;
	// re-loading it is bounded only by the flip-flop ID range.
	d, err := icl.Load(rec.ICL, rec.Bench, math.MaxInt32)
	if err != nil {
		return fmt.Errorf("session record %s: %w", shortKey(sess.key), err)
	}
	nw := d.Network
	for i, scr := range rec.Scripts {
		if nw, err = scr.Apply(nw); err != nil {
			return fmt.Errorf("session record %s: replay script %d: %w", shortKey(sess.key), i, err)
		}
	}
	an, err := hybrid.NewAnalysisOpts(nw, d.Circuit, d.Internal, d.Spec, mode,
		engine.Options{Workers: s.cfg.EngineWorkers, Context: ctx, Stats: s.stats})
	if err != nil {
		return fmt.Errorf("session record %s: rebuild analysis: %w", shortKey(sess.key), err)
	}
	// The per-delta runs thread their own engine options (and job
	// context) via WithEngine; the long-lived analysis must not retain
	// this hydration's context.
	an = an.WithEngine(engine.Options{Workers: s.cfg.EngineWorkers, Stats: s.stats})
	sess.label = rec.Label
	sess.mode = mode
	sess.iclText = rec.ICL
	sess.benchText = rec.Bench
	sess.scripts = rec.Scripts
	sess.an = an
	sess.nw = nw
	sess.circuit = d.Circuit
	sess.internal = d.Internal
	sess.spec = d.Spec
	s.log.Info("session re-hydrated", "key", shortKey(sess.key), "scripts_replayed", len(rec.Scripts))
	return nil
}
