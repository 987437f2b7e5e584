package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one finished span, as handed to the sink. Timestamps are
// microseconds on the tracer's monotonic clock (time since the tracer
// was constructed), so events of one run order and subtract exactly
// regardless of wall-clock adjustments.
type Event struct {
	Span   uint64         `json:"span"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	StartU int64          `json:"start_us"`
	DurU   int64          `json:"dur_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Sink receives finished span events. Implementations must be safe for
// concurrent use; spans end on worker goroutines.
type Sink interface {
	Emit(Event)
}

// BufferedJSONLSink writes one JSON object per span over a buffered
// writer: span events amortize into large writes, and Flush pushes
// everything buffered down to the underlying writer and reports the
// first write error. Long-running processes (rsnserved) flush on
// graceful shutdown so no buffered spans are lost; short-lived CLIs
// flush before closing the file. Safe for concurrent use.
type BufferedJSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewBufferedJSONLSink returns a buffered sink emitting JSON lines to
// w. Call Flush before the underlying writer closes.
func NewBufferedJSONLSink(w io.Writer) *BufferedJSONLSink {
	bw := bufio.NewWriterSize(w, 64<<10)
	return &BufferedJSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit buffers the event as one JSON line.
func (s *BufferedJSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.enc.Encode(ev)
	}
}

// Flush writes all buffered events to the underlying writer.
func (s *BufferedJSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// CollectorSink buffers events in memory (tests, report builders).
type CollectorSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *CollectorSink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of the buffered events in emission order.
func (s *CollectorSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Tracer hands out hierarchical spans (run > circuit > stage > query)
// and emits them to a sink when they end. Span creation is cheap and
// race-safe; high-frequency span names can be sampled so query-level
// tracing does not swamp the journal. A nil *Tracer hands out nil
// spans whose methods no-op.
type Tracer struct {
	sink   Sink
	epoch  time.Time
	now    func() time.Time // test seam; defaults to time.Now
	nextID atomic.Uint64

	// samplers is a copy-on-write map from span name to its sampling
	// policy, so opening a span takes no lock; mu serializes writers.
	mu       sync.Mutex
	samplers atomic.Pointer[map[string]*sampler]

	emitted atomic.Int64
	dropped atomic.Int64
}

// NewTracer returns a tracer emitting to sink (which must be non-nil).
func NewTracer(sink Sink) *Tracer {
	t := &Tracer{sink: sink, epoch: time.Now(), now: time.Now}
	t.samplers.Store(&map[string]*sampler{})
	return t
}

// sampler is one span name's sampling policy: record every n-th of
// the spans counted by seen.
type sampler struct {
	every int64
	seen  atomic.Int64
}

// SampleEvery records only every n-th span of the given name (n <= 1
// records all). Unrecorded spans still receive IDs and still parent
// their children, so the hierarchy stays intact; only their events are
// dropped (counted by Dropped).
func (t *Tracer) SampleEvery(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := maps.Clone(*t.samplers.Load())
	m[name] = &sampler{every: int64(n)}
	t.samplers.Store(&m)
}

// Emitted returns the number of events handed to the sink.
func (t *Tracer) Emitted() int64 {
	if t == nil {
		return 0
	}
	return t.emitted.Load()
}

// Dropped returns the number of spans elided by sampling.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Start opens a span under parent (nil parent makes a root span). The
// returned span must be closed with End; it may be nil (when the
// tracer is nil), and nil spans are safe to use.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(parent, name, t.now(), attrs...)
}

// StartAt is Start with the span's start time given, for callers that
// already read the clock (engine stages time their counters and their
// span from one reading).
func (t *Tracer) StartAt(parent *Span, name string, at time.Time, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		t:     t,
		id:    t.nextID.Add(1),
		name:  name,
		start: at.Sub(t.epoch),
	}
	if parent != nil {
		s.parent = parent.id
	}
	s.attrs = append(s.attrs, attrs...)
	s.record = t.shouldRecord(name)
	if !s.record {
		t.dropped.Add(1)
	}
	return s
}

// shouldRecord applies the per-name sampling policy.
func (t *Tracer) shouldRecord(name string) bool {
	sp := (*t.samplers.Load())[name]
	if sp == nil || sp.every <= 1 {
		return true
	}
	return (sp.seen.Add(1)-1)%sp.every == 0
}

// Span is one timed region of the run hierarchy. All methods tolerate
// nil receivers.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Duration
	record bool

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttrs appends attributes; typically called right before End with
// the span's results (query counts, change counts).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End closes the span and emits it (unless elided by sampling). End is
// idempotent; later calls no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.t.now())
}

// EndAt is End with the span's end time given (see StartAt).
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	if !s.record {
		return
	}
	end := at.Sub(s.t.epoch)
	ev := Event{
		Span:   s.id,
		Parent: s.parent,
		Name:   s.name,
		StartU: s.start.Microseconds(),
		DurU:   (end - s.start).Microseconds(),
	}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			ev.Attrs[a.Key] = attrValue(a.Val)
		}
	}
	s.t.emitted.Add(1)
	s.t.sink.Emit(ev)
}
