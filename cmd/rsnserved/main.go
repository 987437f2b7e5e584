// Command rsnserved is the analysis-as-a-service daemon: it runs the
// secure-data-flow method behind an HTTP+JSON API, backed by a
// content-addressed result store and a bounded job scheduler.
//
// Submit analyses with POST /v1/analyses, poll GET /v1/analyses/{id},
// fetch the finished rsnsec.run-report/v1 document from
// GET /v1/analyses/{id}/report, cancel with DELETE /v1/analyses/{id}.
// Identical submissions are answered from the store (or coalesced onto
// the in-flight run); a byte-identical body is found through its
// submission alias without being decoded again. A full queue answers
// 429. /metrics exposes queue
// depth, cache hit/miss counters, per-endpoint latencies and the
// engine stage counters; -debug-addr additionally serves expvar and
// pprof. SIGINT/SIGTERM drain gracefully: queued and running jobs
// finish (bounded by -drain-timeout), new submissions get 503, and
// the trace journal and log file flush before the process exits; a
// failed flush makes the exit status nonzero.
//
// Performance observatory: -slow-job-threshold DUR logs one warn-level
// "slow" job event (ringed, so GET /debug/events?job=ID shows it) for
// any job that runs at least DUR; the job's spans are in the -trace
// journal under its "job" span. POST /v1/analyses?profile=cpu (or
// heap) forces a real run with pprof capture around it, retrievable
// from GET /v1/analyses/{id}/profile.
//
// Incremental sessions: finished ICL submissions keep a session (the
// parsed network plus the analysis's propagated fixed point; persisted
// with -store-dir). POST /v1/analyses/{id}/delta applies a JSON edit
// script against it and re-secures incrementally, returning a
// rsnsec.delta-report/v1 document; -max-sessions bounds the hydrated
// sessions held in memory.
//
// Telemetry: every log line is a structured record (JSON by default,
// -log-format text for humans; -log-level takes a spec like
// "info,serve.http=warn"); each HTTP request gets an X-Request-ID and
// W3C traceparent (accepted or minted, echoed on the response) that
// follow the work through logs, spans, job records and the flight
// recorder (GET /debug/events, sized by -flight-events; pollers tail
// incrementally with ?since=<last_seq>). Scheduler, job, store and
// attack events are log records that the recorder rings at every
// level, even under -q. Autoscalers read GET /v1/load
// (or the serve_* gauges on /metrics) for the predicted backlog: each
// queued job's scan-FF count times the p90 ns-per-FF rate of the
// finished jobs; -readyz-saturation DUR turns /readyz into a
// backpressure signal.
//
// Metrics: /metrics is the one metrics surface, in Prometheus text;
// windowed rates and SLO burn rates belong to the scraper reading it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	rsnsec "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/serve"
	"repro/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rsnserved:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		addr         = flag.String("addr", "localhost:8341", "HTTP listen address")
		workers      = flag.Int("workers", 1, "concurrent analysis jobs")
		engWorkers   = flag.Int("engine-workers", 0, "SAT workers per job (0 = all CPUs)")
		queueDepth   = flag.Int("queue-depth", 64, "pending-job queue bound (429 beyond it)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job run-time cap (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for in-flight jobs")
		storeDir     = flag.String("store-dir", "", "persist results as <key>.json in this directory (empty = memory only)")
		storeEntries = flag.Int("store-entries", 0, "in-memory store entry bound (0 = 512)")
		maxScanFFs   = flag.Int("max-scan-ffs", 0, "largest accepted analysis in scan flip-flops (0 = 1500)")
		maxSessions  = flag.Int("max-sessions", 0, "hydrated incremental sessions kept in memory (0 = 16)")
		tracePath    = flag.String("trace", "", "write the span journal as JSONL to this file")
		slowJobThr   = flag.Duration("slow-job-threshold", 0, "log a slow event for jobs that run at least this long (0 = off)")
		debugAddr    = flag.String("debug-addr", "", "also serve expvar and pprof on this address")
		quiet        = flag.Bool("q", false, "suppress all log output (overridden by an explicit -log-level)")
		logLevel     = flag.String("log-level", "info", "log level spec: LEVEL[,component=LEVEL...] (debug|info|warn|error|off)")
		logFormat    = flag.String("log-format", "json", "log record encoding: json or text")
		logFile      = flag.String("log-file", "", "write log records to this file instead of stderr (buffered, flushed on shutdown)")
		flightEvents = flag.Int("flight-events", 0, "flight-recorder ring size per category (0 = 256, -1 = disabled)")
		readyzSat    = flag.Duration("readyz-saturation", 0, "/readyz answers 503 while the predicted backlog exceeds this (0 = off)")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("rsnserved"))
		return nil
	}

	logw := io.Writer(os.Stderr)
	if *logFile != "" {
		lf, ferr := os.Create(*logFile)
		if ferr != nil {
			return ferr
		}
		// Buffered: the access log is the hottest sink in the process.
		// Flushed after graceful shutdown (defers run LIFO) so the tail
		// of drained requests is never lost.
		logBuf := olog.NewBufferedWriter(lf)
		defer cliutil.CloseFirstErr(&err, func() error {
			if err := errors.Join(logBuf.Flush(), lf.Close()); err != nil {
				return fmt.Errorf("log file: %w", err)
			}
			return nil
		})
		logw = logBuf
	}
	lg, err := cliutil.Logger(logw, *logLevel, *logFormat, *quiet)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	obs.EnableRuntimeMetrics(reg)
	version.Register(reg)

	// Flushed after graceful shutdown, so no spans of drained jobs are
	// lost.
	tracer, closeTrace, err := cliutil.OpenTrace(*tracePath)
	if err != nil {
		return err
	}
	defer cliutil.CloseFirstErr(&err, closeTrace)

	srv, err := serve.New(serve.Config{
		Addr:          *addr,
		Workers:       *workers,
		EngineWorkers: *engWorkers,
		QueueDepth:    *queueDepth,
		JobTimeout:    *jobTimeout,
		Store: serve.StoreConfig{
			Dir:        *storeDir,
			MaxEntries: *storeEntries,
		},
		Limits:              serve.Limits{MaxScanFFs: *maxScanFFs},
		MaxSessions:         *maxSessions,
		Registry:            reg,
		Tracer:              tracer,
		SlowJobThreshold:    *slowJobThr,
		Logger:              lg,
		FlightEvents:        *flightEvents,
		SaturationThreshold: *readyzSat,
	})
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		dbg, err := rsnsec.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		lg.LogAttrs(context.Background(), slog.LevelInfo, "debug endpoints up",
			slog.String("addr", dbg.Addr()))
	}
	if err := srv.Start(); err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig) // a second signal kills the process the hard way

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}
