// Package cliutil carries the flag glue shared by the rsnsec command
// suite: construction of the conventional -log-level / -log-format
// structured logger and its interaction with the suite-wide -q flag,
// and the -trace span journal.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

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
