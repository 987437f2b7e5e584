// Package flight is an in-memory flight recorder: fixed-size ring
// buffers of recent operational events (job lifecycle transitions,
// scheduler decisions, store activity), kept cheap enough to record
// unconditionally and served as JSON so a stuck or misbehaving daemon
// is diagnosable in place — no restart, no log-file access, no
// sampling gaps right where the incident is.
//
// Events enter through the log: Wrap puts the recorder in front of a
// slog.Handler, so one log call both rings the event (at every level)
// and journals it (when the journal's level admits it). The record's
// component is the category, its message the event name.
//
// The recorder is category-sharded: each category owns its own ring
// and mutex, so job events never contend with store events, and one
// noisy category cannot evict another's history. Record is O(1) with
// a critical section of a few field stores; Snapshot copies out under
// the same short lock. A nil *Recorder no-ops everywhere, matching the
// internal/obs convention that telemetry paths never branch on
// enablement.
package flight

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// Event is one recorded occurrence. Seq orders events globally across
// categories (a single atomic counter), so interleavings reconstruct
// exactly even when per-category rings wrap at different rates.
type Event struct {
	Seq  uint64 `json:"seq"`
	Time string `json:"time"` // RFC3339Nano UTC
	Cat  string `json:"cat"`
	Name string `json:"event"`
	// Job, RequestID and TraceID correlate the event with the job
	// record, access log and span tree of the same request.
	Job       string `json:"job,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// Detail renders the record's other attributes as space-separated
	// k=v pairs (a key prefix, an error summary, a wait).
	Detail string `json:"detail,omitempty"`
}

// ring is one category's fixed-size circular buffer.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int // index of the next write
	count int // total events ever written (saturates reads)
}

// snapshot returns the buffered events, oldest first.
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	start := (r.next - n + len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Recorder is the category-sharded flight recorder.
type Recorder struct {
	size int
	seq  atomic.Uint64

	mu    sync.RWMutex
	rings map[string]*ring

	dropped atomic.Uint64 // events lost to ring wrap (diagnostic)
}

// New returns a recorder retaining up to size events per category
// (size <= 0 uses 256).
func New(size int) *Recorder {
	if size <= 0 {
		size = 256
	}
	return &Recorder{size: size, rings: make(map[string]*ring)}
}

func (r *Recorder) ring(cat string) *ring {
	r.mu.RLock()
	rg := r.rings[cat]
	r.mu.RUnlock()
	if rg != nil {
		return rg
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rg = r.rings[cat]; rg == nil {
		rg = &ring{buf: make([]Event, r.size)}
		r.rings[cat] = rg
	}
	return rg
}

// Record stamps and stores one event. Seq and Time are assigned here;
// callers fill Cat, Name and the correlation fields.
func (r *Recorder) Record(ev Event) {
	if r == nil || ev.Cat == "" {
		return
	}
	ev.Seq = r.seq.Add(1)
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	rg := r.ring(ev.Cat)
	rg.mu.Lock()
	if rg.count >= len(rg.buf) {
		r.dropped.Add(1)
	}
	rg.buf[rg.next] = ev
	rg.next = (rg.next + 1) % len(rg.buf)
	rg.count++
	rg.mu.Unlock()
}

// Categories returns the categories that have recorded events, sorted.
func (r *Recorder) Categories() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	cats := make([]string, 0, len(r.rings))
	for c := range r.rings {
		cats = append(cats, c)
	}
	r.mu.RUnlock()
	sort.Strings(cats)
	return cats
}

// Snapshot returns the retained events of one category ("" merges all
// categories), in global Seq order.
func (r *Recorder) Snapshot(cat string) []Event {
	if r == nil {
		return nil
	}
	var rings []*ring
	r.mu.RLock()
	for c, rg := range r.rings {
		if cat == "" || c == cat {
			rings = append(rings, rg)
		}
	}
	r.mu.RUnlock()
	var out []Event
	for _, rg := range rings {
		out = append(out, rg.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SnapshotSince returns the retained events with Seq > since, one
// category or all (""), in global Seq order — the incremental-tail
// primitive behind the endpoint's ?since= cursor. A poller that keeps
// the last seq it saw reads only new events on each poll instead of
// re-reading the whole ring; a cursor older than the ring simply
// returns everything retained (the gap shows up in Dropped).
func (r *Recorder) SnapshotSince(cat string, since uint64) []Event {
	evs := r.Snapshot(cat)
	if since == 0 {
		return evs
	}
	// Seq is globally monotone, so within a snapshot (already Seq
	// sorted) the cut is a binary search.
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > since })
	return evs[i:]
}

// LastSeq returns the newest sequence number assigned so far (0 before
// any event): the cursor a poller should resume from.
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// onlyJob filters evs in place down to one job's events.
func onlyJob(evs []Event, jobID string) []Event {
	out := evs[:0]
	for _, ev := range evs {
		if ev.Job == jobID {
			out = append(out, ev)
		}
	}
	return out
}

// Dropped returns how many events were overwritten before ever being
// snapshotted — strictly: how many writes landed on a full ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// response is the JSON document served by Handler.
type response struct {
	Categories []string `json:"categories"`
	Dropped    uint64   `json:"dropped"`
	// LastSeq is the newest sequence number assigned so far; pass it
	// back as ?since= to read only what happened after this response.
	LastSeq uint64  `json:"last_seq"`
	Events  []Event `json:"events"`
}

// Handler serves the recorder as JSON (the /debug/events endpoint):
//
//	GET ?cat=sched    one category only
//	GET ?job=a0001-…  one job's events across categories (or within
//	                  ?cat's, when both are given)
//	GET ?n=100        at most the latest 100 events
//	GET ?since=42     only events with seq > 42 (incremental tail;
//	                  resume from the previous response's last_seq)
//
// The request's identity middleware runs outside this handler, so the
// recorder itself stays HTTP-agnostic.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		resp := response{Categories: r.Categories(), Dropped: r.Dropped(), LastSeq: r.LastSeq()}
		var since uint64
		if ss := q.Get("since"); ss != "" {
			v, err := strconv.ParseUint(ss, 10, 64)
			if err != nil {
				http.Error(w, `{"error":"since must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			since = v
		}
		resp.Events = r.SnapshotSince(q.Get("cat"), since)
		if job := q.Get("job"); job != "" {
			resp.Events = onlyJob(resp.Events, job)
		}
		if ns := q.Get("n"); ns != "" {
			n, err := strconv.Atoi(ns)
			if err != nil || n < 0 {
				http.Error(w, `{"error":"n must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			if len(resp.Events) > n {
				resp.Events = resp.Events[len(resp.Events)-n:]
			}
		}
		if resp.Events == nil {
			resp.Events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}

// Wrap returns a slog.Handler that stores every record in the ring of
// its category, then forwards it to next when next is enabled for the
// record's level — so the ring keeps every level even when the journal
// is quiet. The category is the record's component attribute (see
// olog.Component; records without one are not ringed), the event name
// is the message, Job is the "job" attribute, and the other attributes
// render into Detail as k=v pairs. Request and trace IDs come from the
// context (obs.ReqInfoFrom). A nil recorder returns next unchanged.
func (r *Recorder) Wrap(next slog.Handler) slog.Handler {
	if r == nil {
		return next
	}
	return &handler{rec: r, next: next}
}

// handler is the recorder's slog front. base holds what WithAttrs
// bound (category, job, rendered detail); like any slog handler's,
// its state is immutable once built. Groups only reach next: the
// ring's detail is a flat rendering.
type handler struct {
	rec  *Recorder
	next slog.Handler
	base Event
}

// Enabled admits every level: the ring keeps what the journal drops.
func (h *handler) Enabled(context.Context, slog.Level) bool { return true }

func (h *handler) Handle(ctx context.Context, rec slog.Record) error {
	ev := h.base
	ev.Name = rec.Message
	rec.Attrs(func(a slog.Attr) bool {
		addAttr(&ev, a)
		return true
	})
	if ri, ok := obs.ReqInfoFrom(ctx); ok {
		ev.RequestID, ev.TraceID = ri.RequestID, ri.Trace.TraceID
	}
	h.rec.Record(ev)
	if !h.next.Enabled(ctx, rec.Level) {
		return nil
	}
	return h.next.Handle(ctx, rec)
}

// addAttr routes one attribute into ev: the component and job keys
// fill Cat and Job, everything else appends "k=v" to Detail.
func addAttr(ev *Event, a slog.Attr) {
	v := a.Value.Resolve()
	switch a.Key {
	case "":
	case olog.ComponentKey:
		ev.Cat = v.String()
	case "job":
		ev.Job = v.String()
	default:
		if ev.Detail != "" {
			ev.Detail += " "
		}
		ev.Detail += a.Key + "=" + v.String()
	}
}

func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	for _, a := range attrs {
		addAttr(&nh.base, a)
	}
	nh.next = h.next.WithAttrs(attrs)
	return &nh
}

func (h *handler) WithGroup(name string) slog.Handler {
	nh := *h
	nh.next = h.next.WithGroup(name)
	return &nh
}
