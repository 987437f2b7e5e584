package serve

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// gateRun is a controllable job body: each invocation parks until its
// release channel is closed (or the job context ends) and records the
// execution order.
type gateRun struct {
	mu      sync.Mutex
	order   []string
	release chan struct{}
	started chan string
}

func newGateRun() *gateRun {
	return &gateRun{
		release: make(chan struct{}),
		started: make(chan string, 64),
	}
}

func (g *gateRun) run(ctx context.Context, j *Job) ([]byte, error) {
	g.mu.Lock()
	g.order = append(g.order, j.Label)
	g.mu.Unlock()
	g.started <- j.Label
	select {
	case <-g.release:
		return []byte("report:" + j.Label), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gateRun) ran() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

func waitState(t *testing.T, s *Scheduler, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerCoalescesIdenticalSubmissions(t *testing.T) {
	g := newGateRun()
	reg := obs.NewRegistry()
	s := NewScheduler(SchedulerConfig{Workers: 1}, reg, g.run)
	j1, joined, err := s.Submit(context.Background(), testKey(1), "a", 0, 0, nil)
	if err != nil || joined {
		t.Fatalf("first submit: joined=%v err=%v", joined, err)
	}
	<-g.started // j1 is running
	j2, joined, err := s.Submit(context.Background(), testKey(1), "a", 0, 0, nil)
	if err != nil || !joined {
		t.Fatalf("identical submit must coalesce: joined=%v err=%v", joined, err)
	}
	if j2.ID != j1.ID {
		t.Fatalf("coalesced submission got a fresh job: %s vs %s", j2.ID, j1.ID)
	}
	close(g.release)
	waitState(t, s, j1.ID, StateDone)
	if got := g.ran(); len(got) != 1 {
		t.Fatalf("engine ran %d times for 2 identical submissions", len(got))
	}
	if v := reg.Counter("serve_jobs_coalesced_total").Value(); v != 1 {
		t.Fatalf("coalesced counter = %d, want 1", v)
	}
	// The key is released on completion: a later identical submission
	// runs fresh (the HTTP layer consults the store first).
	g.release = make(chan struct{})
	close(g.release)
	j3, joined, err := s.Submit(context.Background(), testKey(1), "a", 0, 0, nil)
	if err != nil || joined {
		t.Fatalf("post-completion submit must not coalesce: %v %v", joined, err)
	}
	waitState(t, s, j3.ID, StateDone)
}

func TestSchedulerQueueFullBackpressure(t *testing.T) {
	g := newGateRun()
	defer close(g.release)
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1}, obs.NewRegistry(), g.run)
	s.Submit(context.Background(), testKey(1), "running", 0, 0, nil)
	<-g.started
	if _, _, err := s.Submit(context.Background(), testKey(2), "queued", 0, 0, nil); err != nil {
		t.Fatalf("queue slot available: %v", err)
	}
	_, _, err := s.Submit(context.Background(), testKey(3), "over", 0, 0, nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow error = %v, want ErrQueueFull", err)
	}
	// Coalescing still works at full queue: it adds no queue entry.
	if _, joined, err := s.Submit(context.Background(), testKey(2), "queued", 0, 0, nil); err != nil || !joined {
		t.Fatalf("coalesce at full queue: joined=%v err=%v", joined, err)
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	g := newGateRun()
	s := NewScheduler(SchedulerConfig{Workers: 1}, obs.NewRegistry(), g.run)
	s.Submit(context.Background(), testKey(0), "first", 0, 0, nil)
	<-g.started // worker busy; the rest queue up
	s.Submit(context.Background(), testKey(1), "low-a", 0, 0, nil)
	s.Submit(context.Background(), testKey(2), "high", 5, 0, nil)
	jLast, _, _ := s.Submit(context.Background(), testKey(3), "low-b", 0, 0, nil)
	close(g.release)
	for i := 0; i < 3; i++ {
		<-g.started
	}
	waitState(t, s, jLast.ID, StateDone)
	want := []string{"first", "high", "low-a", "low-b"}
	got := g.ran()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	g := newGateRun()
	defer close(g.release)
	s := NewScheduler(SchedulerConfig{Workers: 1}, obs.NewRegistry(), g.run)
	s.Submit(context.Background(), testKey(0), "running", 0, 0, nil)
	<-g.started
	j, _, _ := s.Submit(context.Background(), testKey(1), "queued", 0, 0, nil)
	st, err := s.Cancel(context.Background(), j.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: state=%s err=%v", st.State, err)
	}
	if s.Queued() != 0 {
		t.Fatalf("queue depth = %d after cancel", s.Queued())
	}
	// Canceling again reports the terminal state.
	if _, err := s.Cancel(context.Background(), j.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("double cancel error = %v", err)
	}
	// The canceled key coalesces no more.
	if _, joined, err := s.Submit(context.Background(), testKey(1), "queued", 0, 0, nil); err != nil || joined {
		t.Fatalf("resubmit after cancel: joined=%v err=%v", joined, err)
	}
}

func TestSchedulerCancelRunningFreesWorker(t *testing.T) {
	g := newGateRun()
	defer close(g.release)
	s := NewScheduler(SchedulerConfig{Workers: 1}, obs.NewRegistry(), g.run)
	j1, _, _ := s.Submit(context.Background(), testKey(1), "victim", 0, 0, nil)
	<-g.started
	j2, _, _ := s.Submit(context.Background(), testKey(2), "next", 0, 0, nil)
	if _, err := s.Cancel(context.Background(), j1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st := waitState(t, s, j1.ID, StateCanceled)
	if st.Error != "canceled" {
		t.Fatalf("canceled job error = %q", st.Error)
	}
	// The worker must move on to the next queued job.
	<-g.started
	if st, _ := s.Status(j2.ID); st.State != StateRunning {
		t.Fatalf("next job state = %s, want running", st.State)
	}
}

func TestSchedulerJobTimeout(t *testing.T) {
	g := newGateRun()
	defer close(g.release)
	s := NewScheduler(SchedulerConfig{Workers: 1, JobTimeout: 20 * time.Millisecond}, obs.NewRegistry(), g.run)
	// A request asking for MORE than the server cap is clamped down.
	j, _, _ := s.Submit(context.Background(), testKey(1), "slow", 0, time.Hour, nil)
	st := waitState(t, s, j.ID, StateFailed)
	if st.Error == "" || st.Error[:8] != "timeout:" {
		t.Fatalf("timeout error = %q", st.Error)
	}
}

func TestSchedulerDrainGraceful(t *testing.T) {
	g := newGateRun()
	s := NewScheduler(SchedulerConfig{Workers: 1}, obs.NewRegistry(), g.run)
	j1, _, _ := s.Submit(context.Background(), testKey(1), "running", 0, 0, nil)
	<-g.started
	j2, _, _ := s.Submit(context.Background(), testKey(2), "queued", 0, 0, nil)

	done := make(chan error)
	go func() { done <- s.Drain(context.Background()) }()
	// Submissions are refused once draining.
	deadline := time.Now().Add(time.Second)
	for {
		if _, _, err := s.Submit(context.Background(), testKey(3), "late", 0, 0, nil); errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining scheduler still accepts submissions")
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release) // both jobs finish
	if err := <-done; err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		if st, _ := s.Status(id); st.State != StateDone {
			t.Fatalf("job %s = %s after graceful drain, want done", id, st.State)
		}
	}
}

func TestSchedulerDrainDeadlineCancels(t *testing.T) {
	g := newGateRun()
	defer close(g.release)
	s := NewScheduler(SchedulerConfig{Workers: 1}, obs.NewRegistry(), g.run)
	j1, _, _ := s.Submit(context.Background(), testKey(1), "running", 0, 0, nil)
	<-g.started
	j2, _, _ := s.Submit(context.Background(), testKey(2), "queued", 0, 0, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain error = %v", err)
	}
	// No accepted job is silently dropped: both reached terminal states.
	if st, _ := s.Status(j1.ID); st.State != StateCanceled {
		t.Fatalf("running job after forced drain = %s", st.State)
	}
	if st, _ := s.Status(j2.ID); st.State != StateCanceled {
		t.Fatalf("queued job after forced drain = %s", st.State)
	}
}

func TestSchedulerInsertFinished(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1}, obs.NewRegistry(), nil)
	j := s.InsertFinished(context.Background(), testKey(9), "cached", "hit", []byte("doc"))
	st, err := s.Status(j.ID)
	if err != nil || st.State != StateDone || st.Cache != "hit" {
		t.Fatalf("store-hit record: %+v err=%v", st, err)
	}
	data, _, err := s.Result(j.ID)
	if err != nil || string(data) != "doc" {
		t.Fatalf("store-hit result: %q err=%v", data, err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("store-hit job must be born finished")
	}
}

func TestSchedulerFinishedRecordEviction(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, FinishedJobs: 2}, obs.NewRegistry(), nil)
	first := s.InsertFinished(context.Background(), testKey(0), "a", "hit", nil)
	s.InsertFinished(context.Background(), testKey(1), "b", "hit", nil)
	s.InsertFinished(context.Background(), testKey(2), "c", "hit", nil)
	if _, err := s.Status(first.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest finished record must be evicted, got err=%v", err)
	}
}

// blockingHandler parks every record in Handle until release closes,
// signalling entered on the first.
type blockingHandler struct {
	once    *sync.Once
	entered chan struct{}
	release chan struct{}
}

func (h blockingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h blockingHandler) Handle(context.Context, slog.Record) error {
	h.once.Do(func() { close(h.entered) })
	<-h.release
	return nil
}
func (h blockingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h blockingHandler) WithGroup(string) slog.Handler      { return h }

// TestSchedulerLogsOutsideLock: a Submit blocked in its log handler
// must not hold the scheduler lock — records are emitted after it is
// released, so a slow sink cannot stall the scheduler.
func TestSchedulerLogsOutsideLock(t *testing.T) {
	h := blockingHandler{once: &sync.Once{}, entered: make(chan struct{}), release: make(chan struct{})}
	g := newGateRun()
	s := NewScheduler(SchedulerConfig{Workers: 1, Logger: slog.New(h)}, nil, g.run)
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		if _, _, err := s.Submit(context.Background(), "k1", "one", 0, 0, nil); err != nil {
			t.Error(err)
		}
	}()
	<-h.entered
	queued := make(chan int, 1)
	go func() { queued <- s.Queued() }()
	select {
	case n := <-queued:
		if n > 1 {
			t.Errorf("queued = %d, want at most 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Queued() blocked while Submit was logging: the record is emitted under the scheduler lock")
	}
	close(h.release)
	<-submitted
	close(g.release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
