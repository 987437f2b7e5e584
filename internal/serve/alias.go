package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
)

// Submission aliases answer a byte-identical resubmission from the
// store without decoding, parsing or canonically hashing it again. An
// alias record maps the digest of a submission's raw body to the
// content key (and label) its resolution produced; it lives in the
// result store under <digest>.submission (on disk
// <digest>.submission.json), so the store's LRU bounds the aliases and
// its disk tier keeps them across restarts.
//
// The digest covers everything resolve reads besides the body: the
// server's scan-FF cap, which decides whether a body is refused. The
// tag is versioned; bump it whenever resolve's derivation of a content
// key from a body changes (parsing, catalog generation, protocol
// defaults), or old aliases would name the old key.
const submissionTag = "rsnserved.submission/v1"

// submissionSuffix decorates a body digest into its alias store key.
const submissionSuffix = ".submission"

// maxRequestBytes bounds every JSON request body.
const maxRequestBytes = 8 << 20

// aliasRecord is the stored value of a submission alias.
type aliasRecord struct {
	Key   string `json:"key"`
	Label string `json:"label"`
}

// readBody reads a request body of at most maxRequestBytes, sized
// from Content-Length when the client sent one.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxRequestBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	return buf.Bytes(), err
}

// submissionKey returns the alias store key of a raw analysis body.
func (s *Server) submissionKey(body []byte) string {
	h := sha256.New()
	h.Write([]byte(submissionTag))
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(s.cfg.maxScanFFs())))
	h.Write(body)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])) + submissionSuffix
}

// serveAlias answers a submission from its alias when the alias and
// the report it names are both in the store, exactly as a resolved
// store hit is answered, and reports whether it did. Only the report
// lookup counts in the store's hit counter; a missing or unreadable
// alias, or a report that is gone, leaves the submission to the full
// resolve path, which counts its own hit or miss.
func (s *Server) serveAlias(w http.ResponseWriter, r *http.Request, sub string) bool {
	raw, ok := s.store.find(sub, false)
	if !ok {
		return false
	}
	var rec aliasRecord
	if err := json.Unmarshal(raw, &rec); err != nil || !isContentKey(rec.Key) {
		return false
	}
	data, ok := s.store.find(rec.Key, true)
	if !ok {
		return false
	}
	writeJSON(w, http.StatusOK, s.status(s.sched.InsertFinished(r.Context(), rec.Key, rec.Label, "hit", data)))
	return true
}

// putAlias records the submission alias of an analysis whose report
// was just stored.
func (s *Server) putAlias(ctx context.Context, a *analysis) {
	data, err := json.Marshal(aliasRecord{Key: a.key, Label: a.label})
	if err == nil {
		err = s.store.Put(a.submission, data)
	}
	if err != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "alias put failed",
			slog.String("key", shortKey(a.key)), slog.String("err", err.Error()))
	}
}
