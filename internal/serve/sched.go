package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// Scheduler errors surfaced to the HTTP layer.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity — explicit backpressure (HTTP 429) instead of unbounded
	// buffering.
	ErrQueueFull = errors.New("serve: analysis queue full")
	// ErrDraining rejects a submission during graceful shutdown.
	ErrDraining = errors.New("serve: scheduler draining")
	// ErrUnknownJob marks a job id with no record.
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrJobFinished rejects canceling an already-finished job.
	ErrJobFinished = errors.New("serve: job already finished")
)

// JobState enumerates the lifecycle of one analysis job.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Finished reports whether the state is terminal.
func (s JobState) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one analysis unit of work. Mutable fields are guarded by the
// owning scheduler's lock; Done exposes completion to waiters.
type Job struct {
	// ID is the externally visible job identifier.
	ID string
	// Key is the content address of the job's inputs (and of its result
	// in the store).
	Key string
	// Label is a human-readable tag (benchmark name or network name).
	Label string
	// Priority orders the queue: higher runs first, FIFO within a
	// priority.
	Priority int
	// Cache records how the submission was satisfied: "miss" (fresh
	// run), "coalesced" (joined an in-flight identical job) or "hit"
	// (answered from the store).
	Cache string
	// RequestID and TraceID carry the identity of the submitting HTTP
	// request (empty for direct scheduler use), correlating the job
	// record with the access log, span tree and flight recorder.
	// Immutable after Submit.
	RequestID string
	TraceID   string
	// Payload carries the resolved analysis through to the run
	// function.
	Payload any

	state      JobState
	err        string
	result     []byte
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time

	// The job's span, opened by the server's dispatch wrapper before
	// the run function executes (worker-goroutine access only).
	span *obs.Span
	// Captured pprof blob (scheduler-lock guarded, like state).
	profileKind string
	profile     []byte

	ctx       context.Context
	cancel    context.CancelFunc
	canceling bool
	done      chan struct{}
	seq       uint64
	heapIndex int
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is an immutable snapshot of one job, JSON-shaped for the
// HTTP API.
type JobStatus struct {
	ID         string   `json:"id"`
	Key        string   `json:"key"`
	Label      string   `json:"label,omitempty"`
	State      JobState `json:"state"`
	Cache      string   `json:"cache,omitempty"`
	Priority   int      `json:"priority,omitempty"`
	Error      string   `json:"error,omitempty"`
	RequestID  string   `json:"request_id,omitempty"`
	TraceID    string   `json:"trace_id,omitempty"`
	EnqueuedAt string   `json:"enqueued_at,omitempty"`
	StartedAt  string   `json:"started_at,omitempty"`
	FinishedAt string   `json:"finished_at,omitempty"`
	ReportURL  string   `json:"report_url,omitempty"`
	ProfileURL string   `json:"profile_url,omitempty"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// statusLocked snapshots the job under the scheduler lock.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.ID, Key: j.Key, Label: j.Label, State: j.state,
		Cache: j.Cache, Priority: j.Priority, Error: j.err,
		RequestID: j.RequestID, TraceID: j.TraceID,
		EnqueuedAt: stamp(j.enqueuedAt), StartedAt: stamp(j.startedAt),
		FinishedAt: stamp(j.finishedAt),
	}
	if j.state == StateDone {
		st.ReportURL = "/v1/analyses/" + j.ID + "/report"
	}
	if len(j.profile) > 0 {
		st.ProfileURL = "/v1/analyses/" + j.ID + "/profile"
	}
	return st
}

// jobQueue is a max-heap by (priority, arrival order).
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heapIndex = i
	q[j].heapIndex = j
}
func (q *jobQueue) Push(x any) {
	j := x.(*Job)
	j.heapIndex = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*q = old[:n-1]
	return j
}

// SchedulerConfig sizes the job scheduler.
type SchedulerConfig struct {
	// Workers is the number of concurrently running analysis jobs;
	// <= 0 uses 1 (each job parallelizes internally over the engine's
	// SAT worker pool, so one job already saturates the CPUs).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it fail with ErrQueueFull. <= 0 uses 64.
	QueueDepth int
	// JobTimeout caps one job's run time (0 = no cap). A request may
	// lower but never raise it.
	JobTimeout time.Duration
	// FinishedJobs bounds the retained finished-job records (status
	// remains queryable until evicted); <= 0 uses 1024.
	FinishedJobs int
	// Logger, when non-nil, receives one record per scheduler decision
	// (component "sched": enqueue, coalesce, reject, hit, cancel) and
	// per job lifecycle transition (component "job": start, done,
	// failed, canceled, timeout). Records are emitted after the
	// scheduler lock is released, so the handler may do I/O.
	Logger *slog.Logger
}

func (c SchedulerConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 1
}

func (c SchedulerConfig) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c SchedulerConfig) finishedJobs() int {
	if c.FinishedJobs > 0 {
		return c.FinishedJobs
	}
	return 1024
}

// runFunc executes one job and returns the serialized report.
type runFunc func(ctx context.Context, j *Job) ([]byte, error)

// Scheduler runs analysis jobs on a bounded worker pool over a
// priority FIFO queue with explicit backpressure, deduplicates
// identical in-flight submissions, supports per-job timeouts and
// client cancellation, and drains gracefully on shutdown.
type Scheduler struct {
	cfg    SchedulerConfig
	run    runFunc
	log    *slog.Logger // "sched" decisions
	jobLog *slog.Logger // "job" lifecycle

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue
	byID     map[string]*Job
	byKey    map[string]*Job // queued or running jobs, for coalescing
	finished []string        // completion order, for record eviction
	seq      uint64
	closed   bool
	wg       sync.WaitGroup

	queueDepthG, runningG                    *obs.Gauge
	executed, coalesced, rejected, canceledC *obs.Counter
	doneC, failedC                           *obs.Counter
}

// NewScheduler starts cfg.Workers workers executing run. Metrics
// register in reg (may be nil): serve_queue_depth, serve_jobs_running,
// serve_jobs_{executed,coalesced,rejected,canceled,done,failed}_total.
func NewScheduler(cfg SchedulerConfig, reg *obs.Registry, run runFunc) *Scheduler {
	reg.SetHelp("serve_queue_depth", "Queued (not yet running) analysis jobs.")
	reg.SetHelp("serve_jobs_coalesced_total", "Submissions joined onto an identical in-flight job.")
	s := &Scheduler{
		cfg:         cfg,
		run:         run,
		log:         olog.Component(cfg.Logger, "sched"),
		jobLog:      olog.Component(cfg.Logger, "job"),
		byID:        make(map[string]*Job),
		byKey:       make(map[string]*Job),
		queueDepthG: reg.Gauge("serve_queue_depth"),
		runningG:    reg.Gauge("serve_jobs_running"),
		executed:    reg.Counter("serve_jobs_executed_total"),
		coalesced:   reg.Counter("serve_jobs_coalesced_total"),
		rejected:    reg.Counter("serve_jobs_rejected_total"),
		canceledC:   reg.Counter("serve_jobs_canceled_total"),
		doneC:       reg.Counter("serve_jobs_done_total"),
		failedC:     reg.Counter("serve_jobs_failed_total"),
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < cfg.workers(); w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues a job for key. When an identical job is already
// queued or running, the submission coalesces onto it (the returned
// job is the existing one and joined is true) — concurrent identical
// submissions share one engine run. payload, label, priority and
// timeout apply only to freshly created jobs.
//
// ctx is the submitting request's context: its obs.ReqInfo (request
// ID, trace context) is copied onto the job record and re-attached to
// the job's own run context, so logs, spans and flight events emitted
// by the worker goroutine — long after the HTTP handler returned —
// still correlate back to the request. The job's lifetime is NOT
// bound to ctx (a submission outlives its HTTP request by design).
func (s *Scheduler) Submit(ctx context.Context, key, label string, priority int, timeout time.Duration, payload any) (*Job, bool, error) {
	j, joined, err := s.submit(ctx, key, label, priority, timeout, payload)
	switch {
	case joined:
		s.log.LogAttrs(ctx, slog.LevelInfo, "coalesce", jobAttrs(j)...)
	case errors.Is(err, ErrQueueFull):
		s.log.LogAttrs(ctx, slog.LevelDebug, "reject", slog.String("key", shortKey(key)))
	case err == nil:
		s.log.LogAttrs(ctx, slog.LevelInfo, "enqueue", jobAttrs(j)...)
	}
	return j, joined, err
}

func (s *Scheduler) submit(ctx context.Context, key, label string, priority int, timeout time.Duration, payload any) (j *Job, joined bool, err error) {
	ri, _ := obs.ReqInfoFrom(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrDraining
	}
	if existing, ok := s.byKey[key]; ok {
		s.coalesced.Inc()
		return existing, true, nil
	}
	if len(s.queue) >= s.cfg.queueDepth() {
		s.rejected.Inc()
		return nil, false, ErrQueueFull
	}
	if s.cfg.JobTimeout > 0 && (timeout <= 0 || timeout > s.cfg.JobTimeout) {
		timeout = s.cfg.JobTimeout
	}
	s.seq++
	j = &Job{
		ID:         fmt.Sprintf("a%06x-%.12s", s.seq, key),
		Key:        key,
		Label:      label,
		Priority:   priority,
		Cache:      "miss",
		RequestID:  ri.RequestID,
		TraceID:    ri.Trace.TraceID,
		Payload:    payload,
		state:      StateQueued,
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
		seq:        s.seq,
	}
	base := obs.WithReqInfo(context.Background(), ri)
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(base, timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(base)
	}
	heap.Push(&s.queue, j)
	s.byID[j.ID] = j
	s.byKey[key] = j
	s.queueDepthG.Set(int64(len(s.queue)))
	s.cond.Signal()
	return j, false, nil
}

// jobAttrs identifies j in a scheduler record by its immutable fields;
// the job attribute is what /debug/events?job= filters on.
func jobAttrs(j *Job) []slog.Attr {
	return []slog.Attr{slog.String("job", j.ID), slog.String("label", j.Label), slog.String("key", shortKey(j.Key))}
}

// InsertFinished registers an already-satisfied submission (a store
// hit) as a finished job record so its status and report stay
// addressable over the jobs API. ctx carries the submitting request's
// identity, like Submit.
func (s *Scheduler) InsertFinished(ctx context.Context, key, label, cache string, result []byte) *Job {
	ri, _ := obs.ReqInfoFrom(ctx)
	now := time.Now()
	s.mu.Lock()
	s.seq++
	j := &Job{
		ID:         fmt.Sprintf("a%06x-%.12s", s.seq, key),
		Key:        key,
		Label:      label,
		Cache:      cache,
		RequestID:  ri.RequestID,
		TraceID:    ri.Trace.TraceID,
		state:      StateDone,
		result:     result,
		enqueuedAt: now,
		finishedAt: now,
		done:       make(chan struct{}),
		seq:        s.seq,
	}
	close(j.done)
	s.byID[j.ID] = j
	s.recordFinishedLocked(j)
	s.mu.Unlock()
	s.log.LogAttrs(ctx, slog.LevelInfo, cache, jobAttrs(j)...)
	return j
}

// worker executes queued jobs until the scheduler closes and the queue
// drains.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		j.state = StateRunning
		j.startedAt = time.Now()
		s.queueDepthG.Set(int64(len(s.queue)))
		s.runningG.Add(1)
		waited := j.startedAt.Sub(j.enqueuedAt)
		s.mu.Unlock()

		s.jobLog.LogAttrs(j.ctx, slog.LevelDebug, "start",
			slog.String("job", j.ID), slog.Duration("waited", waited.Round(time.Millisecond)))
		s.executed.Inc()
		result, err := s.run(j.ctx, j)
		j.cancel() // release the timeout timer

		s.mu.Lock()
		j.finishedAt = time.Now()
		ev, attrs := "done", []slog.Attr{slog.String("job", j.ID),
			slog.Duration("dur", j.finishedAt.Sub(j.startedAt).Round(time.Millisecond))}
		switch {
		case err == nil:
			j.state = StateDone
			j.result = result
			s.doneC.Inc()
		case j.canceling || errors.Is(err, context.Canceled):
			j.state = StateCanceled
			j.err = "canceled"
			s.canceledC.Inc()
			ev, attrs = "canceled", attrs[:1]
		default:
			j.state = StateFailed
			j.err = err.Error()
			ev = "failed"
			if errors.Is(err, context.DeadlineExceeded) {
				j.err = "timeout: " + j.err
				ev = "timeout"
			}
			attrs[1] = slog.String("err", j.err)
			s.failedC.Inc()
		}
		delete(s.byKey, j.Key)
		s.runningG.Add(-1)
		s.recordFinishedLocked(j)
		close(j.done)
		s.mu.Unlock()
		s.jobLog.LogAttrs(j.ctx, slog.LevelDebug, ev, attrs...)
	}
}

// recordFinishedLocked tracks completion order and evicts the oldest
// finished records beyond the retention bound.
func (s *Scheduler) recordFinishedLocked(j *Job) {
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.finishedJobs() {
		delete(s.byID, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// SetProfile attaches a captured pprof blob to the job record.
func (s *Scheduler) SetProfile(j *Job, kind string, data []byte) {
	s.mu.Lock()
	j.profileKind = kind
	j.profile = data
	s.mu.Unlock()
}

// Profile returns the job's captured pprof blob (empty when the job
// did not request profiling or capture failed) with a status snapshot.
func (s *Scheduler) Profile(id string) (kind string, data []byte, st JobStatus, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return "", nil, JobStatus{}, ErrUnknownJob
	}
	return j.profileKind, j.profile, j.statusLocked(), nil
}

// Status returns a snapshot of the identified job.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.statusLocked(), nil
}

// Result returns the finished job's report bytes.
func (s *Scheduler) Result(id string) ([]byte, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return nil, JobStatus{}, ErrUnknownJob
	}
	return j.result, j.statusLocked(), nil
}

// Cancel terminates the identified job: a queued job is removed from
// the queue immediately; a running job has its context canceled (the
// engine honors cancellation between SAT queries, freeing the worker).
// ctx carries the identity of the canceling request.
func (s *Scheduler) Cancel(ctx context.Context, id string) (JobStatus, error) {
	st, was, err := s.cancel(id)
	if err == nil {
		s.log.LogAttrs(ctx, slog.LevelInfo, "cancel", slog.String("job", st.ID), slog.String("was", string(was)))
	}
	return st, err
}

func (s *Scheduler) cancel(id string) (JobStatus, JobState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return JobStatus{}, "", ErrUnknownJob
	}
	was := j.state
	switch was {
	case StateQueued:
		heap.Remove(&s.queue, j.heapIndex)
		s.queueDepthG.Set(int64(len(s.queue)))
		delete(s.byKey, j.Key)
		j.cancel()
		j.state = StateCanceled
		j.err = "canceled"
		j.finishedAt = time.Now()
		s.canceledC.Inc()
		s.recordFinishedLocked(j)
		close(j.done)
	case StateRunning:
		j.canceling = true
		j.cancel()
	default:
		return j.statusLocked(), was, ErrJobFinished
	}
	return j.statusLocked(), was, nil
}

// Draining reports whether the scheduler has stopped accepting
// submissions (graceful shutdown in progress).
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Queued and Running report current load (for tests and logs).
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// LoadSnapshot is one point-in-time view of scheduler pressure, the
// raw material of the autoscale load signals (see load.go).
type LoadSnapshot struct {
	// Workers is the pool size; Running of them are busy.
	Workers int
	Running int
	// Queued is the number of jobs waiting for a worker; OldestWait is
	// how long the longest-waiting one has been queued.
	Queued     int
	OldestWait time.Duration
	// Backlog is the predicted per-worker work ahead: the cost-model
	// estimates of every queued job plus the unfinished remainder of
	// every running one, divided by the pool size. Zero when no cost
	// function is given.
	Backlog time.Duration
}

// Load snapshots the scheduler's pressure at time now. cost, when
// non-nil, estimates one job's total run time (see Server.jobCost); it
// is called under the scheduler lock and must not call back in.
func (s *Scheduler) Load(now time.Time, cost func(*Job) time.Duration) LoadSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := LoadSnapshot{Workers: s.cfg.workers(), Queued: len(s.queue)}
	var total time.Duration
	for _, j := range s.byKey {
		switch j.state {
		case StateRunning:
			ls.Running++
			if cost != nil {
				if rem := cost(j) - now.Sub(j.startedAt); rem > 0 {
					total += rem
				}
			}
		case StateQueued:
			if w := now.Sub(j.enqueuedAt); w > ls.OldestWait {
				ls.OldestWait = w
			}
			if cost != nil {
				total += cost(j)
			}
		}
	}
	ls.Backlog = total / time.Duration(ls.Workers)
	return ls
}

// Running returns the number of jobs currently executing.
func (s *Scheduler) Running() int { return s.Load(time.Now(), nil).Running }

// Drain stops accepting submissions, lets queued and running jobs
// finish, and returns when the pool is idle. When ctx expires first,
// every remaining job is canceled and Drain waits for the workers to
// acknowledge, so no accepted job is silently abandoned mid-run: it
// either finished or is marked canceled.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel everything still in flight and wait for
	// the workers to wind down.
	s.mu.Lock()
	for _, j := range s.byKey {
		j.canceling = true
		j.cancel()
	}
	// Queued jobs still in the heap are canceled outright.
	var dropped []*Job
	for len(s.queue) > 0 {
		j := heap.Pop(&s.queue).(*Job)
		delete(s.byKey, j.Key)
		j.cancel()
		j.state = StateCanceled
		j.err = "canceled: shutdown"
		j.finishedAt = time.Now()
		s.canceledC.Inc()
		s.recordFinishedLocked(j)
		close(j.done)
		dropped = append(dropped, j)
	}
	s.queueDepthG.Set(0)
	s.mu.Unlock()
	for _, j := range dropped {
		s.log.LogAttrs(j.ctx, slog.LevelDebug, "cancel", slog.String("job", j.ID), slog.String("was", "queued at drain deadline"))
	}
	<-idle
	return ctx.Err()
}
