// Package cliutil carries the flag glue shared by the rsnsec command
// suite: construction of the conventional -log-level / -log-format
// structured logger and its interaction with the suite-wide -q flag,
// the run set-up behind -timeout, -trace, -trace-sample and
// -debug-addr, and the -validate document check.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// Logger builds a tool logger from the conventional -log-level and
// -log-format flag values, writing to w. quiet forces the level off —
// the suite-wide -q contract (clean output streams for scripting) —
// unless the user explicitly passed -log-level on the command line,
// which wins over -q.
func Logger(w io.Writer, spec, format string, quiet bool) (*slog.Logger, error) {
	if quiet && !FlagWasSet("log-level") {
		spec = "off"
	}
	levels, err := olog.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if format != "json" && format != "text" {
		return nil, fmt.Errorf("unknown -log-format %q (want json or text)", format)
	}
	return olog.New(olog.Options{Writer: w, Format: format, Levels: levels}), nil
}

// Outputs returns a command's informational stdout and diagnostic
// stderr writers. quiet (-q, full machine mode) silences both; hard
// errors still reach stderr.
func Outputs(quiet bool) (out, errw io.Writer) {
	if quiet {
		return io.Discard, io.Discard
	}
	return os.Stdout, os.Stderr
}

// FlagWasSet reports whether the named flag appeared on the command
// line (as opposed to resting at its default value).
func FlagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// OpenTrace creates path as the -trace span journal: a tracer over a
// buffered JSONL sink, and a close function that flushes the sink and
// closes the file, returning the first error, so a journal the disk
// refused fails the run instead of being cut short silently. An empty
// path returns a nil tracer (its spans no-op) and a close that does
// nothing.
func OpenTrace(path string) (*obs.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	sink := obs.NewBufferedJSONLSink(f)
	return obs.NewTracer(sink), func() error {
		if err := errors.Join(sink.Flush(), f.Close()); err != nil {
			return fmt.Errorf("trace journal: %w", err)
		}
		return nil
	}, nil
}

// CloseFirstErr runs close and stores its error in *err unless *err
// already holds one. Deferred over a named result, it fails a run on a
// flush or close error without masking an earlier error.
func CloseFirstErr(err *error, close func() error) {
	if cerr := close(); *err == nil {
		*err = cerr
	}
}

// Setup holds the run flags the analysis commands share.
type Setup struct {
	Timeout     time.Duration
	TracePath   string
	TraceSample int
	DebugAddr   string
	// Stats asks for engine stats even without a debug server, which
	// always gets them.
	Stats  bool
	Logger *slog.Logger
}

// Run is one command run as Setup.Start opened it.
type Run struct {
	Ctx context.Context
	// Stats is nil unless Setup.Stats or a debug server asked for it.
	Stats  *engine.Stats
	Tracer *obs.Tracer
	// Span is the root "run" span the stages nest under.
	Span *obs.Span

	cancel     context.CancelFunc
	dbg        *obs.DebugServer
	closeTrace func() error
}

// Start opens a run: the context with the -timeout deadline, engine
// stats on a fresh metrics registry, the -trace journal sampling its
// high-frequency spans every -trace-sample, the -debug-addr endpoints
// over that registry, and the root "run" span carrying attrs.
func (s Setup) Start(attrs ...obs.Attr) (*Run, error) {
	r := &Run{Ctx: context.Background(), cancel: func() {}}
	if s.Timeout > 0 {
		r.Ctx, r.cancel = context.WithTimeout(r.Ctx, s.Timeout)
	}
	reg := obs.NewRegistry()
	if s.Stats || s.DebugAddr != "" {
		r.Stats = engine.NewStatsOn(reg)
	}
	var err error
	if r.Tracer, r.closeTrace, err = OpenTrace(s.TracePath); err != nil {
		r.cancel()
		return nil, err
	}
	for _, name := range []string{"query", "sim-filter", "propagate-delta"} {
		r.Tracer.SampleEvery(name, s.TraceSample)
	}
	if s.DebugAddr != "" {
		if r.dbg, err = obs.StartDebug(s.DebugAddr, reg); err != nil {
			r.Close()
			return nil, err
		}
		s.Logger.LogAttrs(r.Ctx, slog.LevelInfo, "debug endpoints up", slog.String("addr", r.dbg.Addr()))
	}
	r.Span = r.Tracer.Start(nil, "run", attrs...)
	return r, nil
}

// Close ends the run span, stops the debug server, cancels the context
// and flushes the trace journal, returning the journal's error.
func (r *Run) Close() error {
	r.Span.End()
	if r.dbg != nil {
		r.dbg.Close()
	}
	r.cancel()
	return r.closeTrace()
}
