package jobs

import (
	"container/heap"
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Sentinel errors.
var (
	// ErrQueueFull is returned by Submit when the pending queue is at
	// capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown is returned by Submit after Shutdown has begun.
	ErrShuttingDown = errors.New("jobs: shutting down")
)

// Config sizes a Manager. The zero value is usable: GOMAXPROCS workers, a
// 64-deep queue, 15-minute retention, 256-event rings.
type Config struct {
	// Workers bounds concurrent solves; <= 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds the pending queue; <= 0 means 64.
	QueueCap int
	// Retention is how long terminal jobs stay fetchable; <= 0 means 15
	// minutes.
	Retention time.Duration
	// EventBuffer is the per-job event-ring capacity; <= 0 means 256.
	EventBuffer int
	// Acquire, when non-nil, gates each solve on an admission slot shared
	// with the rest of the server. It blocks until a slot is free or ctx is
	// done, and returns the release function. A nil Acquire runs solves
	// unguarded.
	Acquire func(ctx context.Context) (release func(), err error)
	// Logger receives job lifecycle logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(discard{}, nil))
	}
	return c
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Spec describes one job submission.
type Spec struct {
	// Key dedups submissions: while a job with an equal Key is queued or
	// running, Submit joins it instead of starting another solve. Key must
	// be nil or comparable; nil disables dedup.
	Key any
	// Priority orders the queue; higher runs first.
	Priority int
	// Timeout bounds the job's total lifetime (queue wait included); 0
	// means none. The deadline is fixed at submission.
	Timeout time.Duration
	// Run is the solve; required.
	Run RunFunc
}

// Stats is a point-in-time view of the manager, shaped for metrics export.
type Stats struct {
	// Workers is the configured pool size; QueueCap the queue bound.
	Workers, QueueCap int
	// Queued and Running are current occupancy gauges.
	Queued, Running int
	// Submitted counts accepted submissions (dedup joins excluded);
	// DedupJoined counts submissions answered by an existing job.
	Submitted, DedupJoined uint64
	// Succeeded, Failed and Canceled count terminal outcomes.
	Succeeded, Failed, Canceled uint64
	// Retained is the number of jobs currently in the table (all states).
	Retained int
}

// Manager owns the job table, the pending queue and the worker pool.
type Manager struct {
	cfg Config

	mu          sync.Mutex
	cond        *sync.Cond
	queue       jobQueue
	jobs        map[string]*Job
	byKey       map[any]*Job // queued or running jobs, by dedup key
	submitSeq   uint64
	running     int
	down        bool
	submitted   uint64
	dedupJoined uint64
	succeeded   uint64
	failed      uint64
	canceled    uint64

	wg          sync.WaitGroup
	janitorStop chan struct{}
	stopOnce    sync.Once
}

// New starts a manager with cfg's worker pool and retention janitor.
// Shutdown must be called to release them.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:         cfg.withDefaults(),
		jobs:        make(map[string]*Job),
		byKey:       make(map[any]*Job),
		janitorStop: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Submit enqueues a job for spec. When spec.Key matches a queued or running
// job, that job is returned with joined == true and no new solve starts.
func (m *Manager) Submit(spec Spec) (j *Job, joined bool, err error) {
	if spec.Run == nil {
		return nil, false, errors.New("jobs: Spec.Run is required")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, false, ErrShuttingDown
	}
	if spec.Key != nil {
		if prev := m.byKey[spec.Key]; prev != nil {
			m.dedupJoined++
			prev.mu.Lock()
			prev.joined++
			prev.mu.Unlock()
			return prev, true, nil
		}
	}
	if len(m.queue) >= m.cfg.QueueCap {
		return nil, false, ErrQueueFull
	}
	m.submitSeq++
	now := time.Now().UTC()
	j = &Job{
		ID:        newID(),
		Key:       spec.Key,
		Priority:  spec.Priority,
		Created:   now,
		run:       spec.Run,
		submitSeq: m.submitSeq,
		heapIdx:   -1,
		ring:      newEventRing(m.cfg.EventBuffer),
		notifyCh:  make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	if spec.Timeout > 0 {
		j.deadline = now.Add(spec.Timeout)
	}
	j.mu.Lock()
	j.setStateLocked(StateQueued, "")
	j.mu.Unlock()
	m.jobs[j.ID] = j
	if spec.Key != nil {
		m.byKey[spec.Key] = j
	}
	heap.Push(&m.queue, j)
	m.submitted++
	m.cfg.Logger.Info("job queued", "job", j.ID, "priority", j.Priority, "queue_depth", len(m.queue))
	m.cond.Signal()
	return j, false, nil
}

// Get returns the job by ID, or nil if unknown (never submitted, or swept
// by the retention janitor).
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List snapshots every retained job, newest submission first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Snapshot, 0, len(js))
	for _, j := range js {
		out = append(out, j.Snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.After(out[b].Created) })
	return out
}

// Cancel requests cancellation of the job. A queued job becomes terminal
// immediately; a running job's context is canceled and the worker records
// the terminal state when the solver unwinds. The returned state is the
// job's state at the time of the call; found is false for unknown IDs.
func (m *Manager) Cancel(id string) (state State, found bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return "", false
	}
	j.mu.Lock()
	state = j.state
	switch {
	case j.state == StateQueued && j.heapIdx >= 0:
		heap.Remove(&m.queue, j.heapIdx)
		j.mu.Unlock()
		m.finishLocked(j, StateCanceled, "canceled before start", nil)
	default:
		j.requestCancelLocked()
		j.mu.Unlock()
	}
	m.cfg.Logger.Info("job cancel requested", "job", id, "state", string(state))
	return state, true
}

// Stats returns current occupancy and lifetime counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Workers:     m.cfg.Workers,
		QueueCap:    m.cfg.QueueCap,
		Queued:      len(m.queue),
		Running:     m.running,
		Submitted:   m.submitted,
		DedupJoined: m.dedupJoined,
		Succeeded:   m.succeeded,
		Failed:      m.failed,
		Canceled:    m.canceled,
		Retained:    len(m.jobs),
	}
}

// Shutdown drains the manager: new submissions are refused, queued jobs are
// canceled immediately, and running jobs get until ctx's deadline to finish
// before their contexts are force-canceled. It returns nil when every worker
// exited within the deadline, ctx.Err() otherwise (workers are still waited
// for after the forced cancel — solvers poll their context, so that wait is
// prompt).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.down = true
	for len(m.queue) > 0 {
		j := heap.Pop(&m.queue).(*Job)
		m.finishLocked(j, StateCanceled, "server shutting down", nil)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.janitorStop) })

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		j.requestCancelLocked()
		j.mu.Unlock()
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

// finishLocked records a job's terminal state: counters, dedup index and the
// job's own transition. Callers hold m.mu but not j.mu.
func (m *Manager) finishLocked(j *Job, s State, errMsg string, result any) {
	if m.byKey[j.Key] == j {
		delete(m.byKey, j.Key)
	}
	switch s {
	case StateSucceeded:
		m.succeeded++
	case StateFailed:
		m.failed++
	case StateCanceled:
		m.canceled++
	}
	j.mu.Lock()
	j.result = result
	j.setStateLocked(s, errMsg)
	j.mu.Unlock()
	m.cfg.Logger.Info("job finished", "job", j.ID, "state", string(s), "error", errMsg)
}

// worker pops and runs jobs until shutdown drains the queue.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.down {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*Job)

		j.mu.Lock()
		if j.canceled {
			j.mu.Unlock()
			m.finishLocked(j, StateCanceled, "canceled before start", nil)
			m.mu.Unlock()
			continue
		}
		ctx := context.Background()
		var cancel context.CancelFunc
		if !j.deadline.IsZero() {
			ctx, cancel = context.WithDeadline(ctx, j.deadline)
		} else {
			ctx, cancel = context.WithCancel(ctx)
		}
		j.cancel = cancel
		j.started = time.Now().UTC()
		j.setStateLocked(StateRunning, "")
		j.mu.Unlock()
		m.running++
		m.mu.Unlock()

		result, err := m.execute(ctx, j)
		cancel()
		s, msg := finalState(j, err)

		m.mu.Lock()
		m.running--
		m.finishLocked(j, s, msg, result)
		m.mu.Unlock()
	}
}

// execute runs the job body behind the admission gate.
func (m *Manager) execute(ctx context.Context, j *Job) (any, error) {
	if m.cfg.Acquire != nil {
		release, err := m.cfg.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	return j.run(ctx, j)
}

// finalState maps a solve outcome to the job's terminal state. A context
// error counts as canceled only when cancellation was actually requested;
// a deadline expiry is a failure.
func finalState(j *Job, err error) (State, string) {
	if err == nil {
		return StateSucceeded, ""
	}
	j.mu.Lock()
	canceled := j.canceled
	j.mu.Unlock()
	if canceled && !errors.Is(err, context.DeadlineExceeded) {
		return StateCanceled, "canceled"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return StateFailed, "job deadline exceeded"
	}
	return StateFailed, err.Error()
}

// janitor periodically drops terminal jobs older than the retention window.
func (m *Manager) janitor() {
	defer m.wg.Done()
	interval := m.cfg.Retention / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.sweep(time.Now().Add(-m.cfg.Retention))
		}
	}
}

// sweep removes terminal jobs finished before cutoff.
func (m *Manager) sweep(cutoff time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if gone {
			delete(m.jobs, id)
		}
	}
}
