// Package olog is the structured-logging layer of the pipeline, built
// on the standard library's log/slog: a JSON (or text) handler with
// per-component level control, automatic stamping of every record with
// the active request identity (request ID, W3C trace/span IDs) carried
// in context.Context by internal/obs.
//
// The design splits responsibilities the same way internal/obs does:
//
//   - Levels owns the level policy — one default plus per-component
//     overrides ("info,engine=debug,serve.http=warn"), adjustable at
//     runtime without rebuilding loggers.
//   - the handler owns record mechanics — it consults Levels with the
//     record's component (attached via Component), stamps request_id /
//     trace_id / span_id from the context, and delegates encoding to a
//     stdlib slog.JSONHandler or slog.TextHandler.
//
// Like the rest of internal/obs, disabled logging must cost nothing on
// hot paths: a record below its component's level is rejected in
// Enabled before any attribute is materialized, and slog's front-end
// already elides argument construction for rejected records.
package olog

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ComponentKey is the attribute key that routes a record to its
// component's level policy (see Component).
const ComponentKey = "component"

// LevelOff disables a component entirely; no record passes.
const LevelOff = slog.Level(127)

// ParseLevel parses one level name: debug, info, warn, error, off.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none":
		return LevelOff, nil
	default:
		return 0, fmt.Errorf("olog: unknown level %q (want debug, info, warn, error or off)", s)
	}
}

// Levels is the runtime level policy: a default level plus
// per-component overrides. The zero value is unusable; construct with
// NewLevels or ParseSpec. Lookups are lock-free on the fast path (an
// atomically swapped map), so Enabled checks stay cheap even when hot
// paths probe them.
type Levels struct {
	def atomic.Int64 // slog.Level
	mu  sync.Mutex   // serializes writers of byComp
	m   atomic.Value // map[string]slog.Level, copy-on-write
}

// NewLevels returns a policy with the given default level and no
// per-component overrides.
func NewLevels(def slog.Level) *Levels {
	l := &Levels{}
	l.def.Store(int64(def))
	l.m.Store(map[string]slog.Level{})
	return l
}

// ParseSpec parses a level specification of the form
//
//	LEVEL[,component=LEVEL...]
//
// e.g. "info", "debug", "info,engine=debug,serve.http=warn". The bare
// leading LEVEL (optional) sets the default.
func ParseSpec(spec string) (*Levels, error) {
	l := NewLevels(slog.LevelInfo)
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if comp, lv, ok := strings.Cut(part, "="); ok {
			parsed, err := ParseLevel(lv)
			if err != nil {
				return nil, err
			}
			if strings.TrimSpace(comp) == "" {
				return nil, fmt.Errorf("olog: empty component in level spec %q", spec)
			}
			l.Set(strings.TrimSpace(comp), parsed)
			continue
		}
		if i != 0 {
			return nil, fmt.Errorf("olog: default level must lead the spec, got %q in %q", part, spec)
		}
		parsed, err := ParseLevel(part)
		if err != nil {
			return nil, err
		}
		l.SetDefault(parsed)
	}
	return l, nil
}

// SetDefault changes the default level.
func (l *Levels) SetDefault(lv slog.Level) { l.def.Store(int64(lv)) }

// Set overrides the level of one component.
func (l *Levels) Set(component string, lv slog.Level) {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.m.Load().(map[string]slog.Level)
	next := make(map[string]slog.Level, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[component] = lv
	l.m.Store(next)
}

// Level resolves the effective level for a component ("" uses the
// default).
func (l *Levels) Level(component string) slog.Level {
	if l == nil {
		return slog.LevelInfo
	}
	if component != "" {
		if lv, ok := l.m.Load().(map[string]slog.Level)[component]; ok {
			return lv
		}
	}
	return slog.Level(l.def.Load())
}

// String renders the policy in ParseSpec's input form (components
// sorted for determinism).
func (l *Levels) String() string {
	var sb strings.Builder
	sb.WriteString(strings.ToLower(slog.Level(l.def.Load()).String()))
	m := l.m.Load().(map[string]slog.Level)
	comps := make([]string, 0, len(m))
	for c := range m {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(&sb, ",%s=%s", c, strings.ToLower(m[c].String()))
	}
	return sb.String()
}

// Options parameterizes New.
type Options struct {
	// Writer receives the encoded records; nil discards.
	Writer io.Writer
	// Format selects the encoding: "json" (default) or "text".
	Format string
	// Levels is the level policy; nil uses a fresh info-level policy.
	Levels *Levels
}

// New builds a logger whose handler stamps request identity from the
// context and consults the Levels policy per component. The returned
// logger is safe for concurrent use; derive component loggers with
// Component.
func New(opts Options) *slog.Logger {
	if opts.Writer == nil {
		return Discard()
	}
	levels := opts.Levels
	if levels == nil {
		levels = NewLevels(slog.LevelInfo)
	}
	hopts := &slog.HandlerOptions{
		// The inner handler must not re-filter: the component-aware
		// outer handler owns the level decision.
		Level: slog.Level(-128),
	}
	var inner slog.Handler
	if opts.Format == "text" {
		inner = slog.NewTextHandler(opts.Writer, hopts)
	} else {
		inner = slog.NewJSONHandler(opts.Writer, hopts)
	}
	return slog.New(&handler{inner: inner, levels: levels})
}

// Component derives a child logger bound to a named component: records
// carry component=name and are filtered by that component's level in
// the policy. On loggers not built by New the attribute is still
// attached (level routing just stays global).
func Component(lg *slog.Logger, name string) *slog.Logger {
	if lg == nil {
		return Discard()
	}
	return lg.With(ComponentKey, name)
}

// Discard returns a logger that drops everything with near-zero cost.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// handler is the component- and context-aware front of a stdlib
// encoding handler.
type handler struct {
	inner     slog.Handler
	levels    *Levels
	component string
}

// Enabled applies the component's level from the policy — the hot-path
// fast exit: a disabled record costs one atomic map load.
func (h *handler) Enabled(_ context.Context, lvl slog.Level) bool {
	return lvl >= h.levels.Level(h.component)
}

// Handle stamps the record with the request identity carried by ctx
// (request_id, trace_id, span_id) and delegates encoding.
func (h *handler) Handle(ctx context.Context, rec slog.Record) error {
	if ri, ok := obs.ReqInfoFrom(ctx); ok {
		if ri.RequestID != "" {
			rec.AddAttrs(slog.String("request_id", ri.RequestID))
		}
		if ri.Trace.TraceID != "" {
			rec.AddAttrs(slog.String("trace_id", ri.Trace.TraceID),
				slog.String("span_id", ri.Trace.SpanID))
		}
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs tracks the component attribute (so level routing follows
// Component) and forwards the attrs for encoding.
func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	for _, a := range attrs {
		if a.Key == ComponentKey {
			nh.component = a.Value.String()
		}
	}
	nh.inner = h.inner.WithAttrs(attrs)
	return &nh
}

func (h *handler) WithGroup(name string) slog.Handler {
	nh := *h
	nh.inner = h.inner.WithGroup(name)
	return &nh
}

// BufferedWriter wraps a writer with a mutex-guarded bufio buffer so
// high-rate log sinks (access logs to a file) amortize syscalls; Flush
// pushes the tail through before the underlying file closes. It exists
// because slog handlers write one record at a time and bufio.Writer
// alone is not safe for the handler's concurrent writes.
type BufferedWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

// NewBufferedWriter returns a concurrent-safe buffered writer over w.
func NewBufferedWriter(w io.Writer) *BufferedWriter {
	return &BufferedWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Write buffers p.
func (b *BufferedWriter) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bw.Write(p)
}

// Flush writes everything buffered to the underlying writer.
func (b *BufferedWriter) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bw.Flush()
}
