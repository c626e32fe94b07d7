// Package jobs is the serving daemon's asynchronous maintenance plane: a
// bounded queue of typed background jobs (wrapper learning, drift repair)
// executed on a worker pool that is fully isolated from the extraction hot
// path. Learning a site takes orders of magnitude longer than extracting a
// page; holding an HTTP request open through a re-learn couples the two
// and lets either starve the other. Instead, submission is an O(1) enqueue
// that fails fast when the queue is full, execution happens on the
// manager's own goroutines (its own pool sizing, nothing shared with the
// extract worker pools or the admission gate), and callers observe
// progress through snapshots: queued → running → done | failed | canceled.
//
// The manager keeps every live job plus a bounded history of finished
// ones, so GET /v1/jobs stays an O(jobs) introspection endpoint rather
// than an unbounded memory leak. Drain closes the plane down the way a
// serving process wants: new submissions rejected, queued jobs canceled
// (they never started; rerunning them later is safe), running jobs waited
// for up to the caller's deadline and then canceled through their context.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Kind types a job. The two maintenance verbs mirror the wrapper
// lifecycle: learn a new site, repair a drifted one.
type Kind string

const (
	// KindLearn is a first-time (or from-scratch) site learn.
	KindLearn Kind = "learn"
	// KindRepair is a drift re-learn of an already-served site.
	KindRepair Kind = "repair"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → (done | failed | canceled), with one shortcut:
// a queued job canceled before a worker picks it up goes straight to
// canceled without ever running.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Runner is one job's work. It runs on a manager worker goroutine with the
// job's context (canceled by Cancel and by a drain deadline); progress
// publishes a human-readable phase string into the job's snapshot. The
// returned result lands in Snapshot.Result on success and must be
// JSON-marshalable.
type Runner func(ctx context.Context, progress func(string)) (result any, err error)

// Errors returned by Submit and Cancel.
var (
	// ErrQueueFull reports a submission bounced off the bounded queue —
	// the maintenance plane's own backpressure signal (HTTP maps it
	// to 429).
	ErrQueueFull = errors.New("jobs: queue full, retry later")
	// ErrDraining reports a submission during shutdown.
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished reports a cancel of an already-terminal job.
	ErrFinished = errors.New("jobs: job already finished")
)

// Options sizes a Manager.
type Options struct {
	// Workers bounds concurrently running jobs (default 1). This pool is
	// the learn plane's — it shares nothing with the extraction pools, so
	// an extract burst cannot starve a learn and a learn cannot occupy an
	// extract slot.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 16). Beyond
	// it, Submit fails fast with ErrQueueFull.
	QueueDepth int
	// History bounds retained finished jobs (default 256); the oldest
	// finished jobs are evicted first. Live (queued/running) jobs are
	// never evicted.
	History int
	// IDPrefix prefixes generated job IDs ("job-000001" becomes
	// "s2-job-000001" with prefix "s2-"). Job sequence numbers are
	// per-manager, so a sharded fleet gives each shard's manager a
	// distinct prefix to keep IDs unique fleet-wide — the front-end can
	// then resolve GET /v1/jobs/{id} by asking every shard.
	IDPrefix string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.History <= 0 {
		o.History = 256
	}
	return o
}

// job is the manager-owned mutable record; all fields are guarded by the
// manager's mutex except ctx/cancel (immutable after creation).
type job struct {
	id   string
	kind Kind
	site string
	run  Runner

	ctx    context.Context
	cancel context.CancelFunc

	// progress is written by the runner goroutine and read by snapshot
	// paths holding the manager lock; atomic keeps the two independent.
	progress atomic.Pointer[string]

	state     State
	errMsg    string
	result    any
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Snapshot is a point-in-time public view of one job.
type Snapshot struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	Site  string `json:"site"`
	State State  `json:"state"`
	// Progress is the runner's latest phase string (running jobs only).
	Progress string `json:"progress,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Result is the runner's return value (done jobs only).
	Result      any       `json:"result,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	// QueuedMS is time spent waiting for a worker; RunMS the execution
	// time so far (or total, once terminal).
	QueuedMS int64 `json:"queued_ms"`
	RunMS    int64 `json:"run_ms"`
}

func (j *job) snapshotLocked(now time.Time) Snapshot {
	s := Snapshot{
		ID:          j.id,
		Kind:        j.kind,
		Site:        j.site,
		State:       j.state,
		Error:       j.errMsg,
		Result:      j.result,
		SubmittedAt: j.submitted,
	}
	if p := j.progress.Load(); p != nil {
		s.Progress = *p
	}
	switch {
	case j.state == StateQueued:
		s.QueuedMS = now.Sub(j.submitted).Milliseconds()
	case j.started.IsZero(): // canceled straight out of the queue
		s.QueuedMS = j.finished.Sub(j.submitted).Milliseconds()
	default:
		s.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		s.RunMS = end.Sub(j.started).Milliseconds()
	}
	return s
}

// KindMetrics aggregates one kind's lifetime counters for /metrics.
type KindMetrics struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// TotalRunMS sums the run time of jobs that executed to a verdict
	// (done or failed); MeanRunMS is that sum over the same population.
	TotalRunMS int64   `json:"total_run_ms"`
	MeanRunMS  float64 `json:"mean_run_ms"`
}

// Metrics is the manager's point-in-time ledger.
type Metrics struct {
	Queued     int                    `json:"queued"`
	Running    int                    `json:"running"`
	Workers    int                    `json:"workers"`
	QueueDepth int                    `json:"queue_depth"`
	Kinds      map[string]KindMetrics `json:"kinds,omitempty"`
}

// Add folds another manager's ledger into m, so that several job planes
// read as one: counts and capacities add, and each kind's mean run time
// is taken over the summed population.
func (m *Metrics) Add(o Metrics) {
	m.Queued += o.Queued
	m.Running += o.Running
	m.Workers += o.Workers
	m.QueueDepth += o.QueueDepth
	for kind, km := range o.Kinds {
		if m.Kinds == nil {
			m.Kinds = make(map[string]KindMetrics, len(o.Kinds))
		}
		sum := m.Kinds[kind]
		sum.Submitted += km.Submitted
		sum.Done += km.Done
		sum.Failed += km.Failed
		sum.Canceled += km.Canceled
		sum.TotalRunMS += km.TotalRunMS
		sum.MeanRunMS = 0
		if ran := sum.Done + sum.Failed; ran > 0 {
			sum.MeanRunMS = float64(sum.TotalRunMS) / float64(ran)
		}
		m.Kinds[kind] = sum
	}
}

// Manager runs the maintenance plane: a bounded job queue drained by a
// fixed worker pool. Build one with New; it is safe for concurrent use.
type Manager struct {
	opt Options
	wg  sync.WaitGroup // worker goroutines

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue, broadcast on drain
	pending  []*job     // FIFO wait queue, length bounded by QueueDepth
	jobs     map[string]*job
	order    []*job // submission order; evicted finished jobs drop out
	seq      int64
	running  int
	finished int // terminal jobs currently retained in order
	draining bool
	idle     chan struct{} // closed+replaced whenever running hits 0
	kinds    map[Kind]*KindMetrics
}

// New starts a manager and its worker pool; zero options select defaults
// (1 worker, queue depth 16).
func New(opt Options) *Manager {
	opt = opt.withDefaults()
	m := &Manager{
		opt:   opt,
		jobs:  make(map[string]*job),
		idle:  make(chan struct{}),
		kinds: make(map[Kind]*KindMetrics),
	}
	m.cond = sync.NewCond(&m.mu)
	close(m.idle) // nothing running yet
	m.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues one job and returns its snapshot immediately — the
// caller polls Get for completion. It fails fast with ErrQueueFull when
// the bounded queue is full and ErrDraining during shutdown. The wait
// queue is a plain list, so a canceled queued job frees its slot at the
// moment of cancellation, not when a worker eventually reaches it.
func (m *Manager) Submit(kind Kind, site string, run Runner) (Snapshot, error) {
	if run == nil {
		return Snapshot{}, fmt.Errorf("jobs: submit %s/%s: nil runner", kind, site)
	}
	now := time.Now()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	if len(m.pending) >= m.opt.QueueDepth {
		m.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.seq++
	j := &job{
		id:        fmt.Sprintf("%sjob-%06d", m.opt.IDPrefix, m.seq),
		kind:      kind,
		site:      site,
		run:       run,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: now,
	}
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.kindLocked(kind).Submitted++
	snap := j.snapshotLocked(now)
	m.cond.Signal()
	m.mu.Unlock()
	return snap, nil
}

// kindLocked returns the kind's metrics cell, creating it on first use.
func (m *Manager) kindLocked(k Kind) *KindMetrics {
	km, ok := m.kinds[k]
	if !ok {
		km = &KindMetrics{}
		m.kinds[k] = km
	}
	return km
}

// finishLocked records a job's transition to a terminal state and evicts
// the oldest finished jobs beyond the history bound. The finished counter
// keeps the common path O(1); the compaction scan only runs when the
// bound is actually exceeded. Dropping the Runner closure here matters:
// it captures the job's page corpus (up to MaxPages of HTML), and the
// finished history must retain reports, not corpora.
func (m *Manager) finishLocked(j *job) {
	j.run = nil
	m.finished++
	if m.finished <= m.opt.History {
		return
	}
	keep := m.order[:0]
	for _, j := range m.order {
		if m.finished > m.opt.History && j.state.Terminal() {
			delete(m.jobs, j.id)
			m.finished--
			continue
		}
		keep = append(keep, j)
	}
	m.order = keep
}

// Get returns one job's snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.snapshotLocked(time.Now()), nil
}

// List returns every retained job in submission order (live jobs plus
// the bounded finished history; order is append-only and compaction
// preserves it, so no re-sort — which would go wrong anyway once ids
// outgrow their zero padding).
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	out := make([]Snapshot, 0, len(m.order))
	for _, j := range m.order {
		out = append(out, j.snapshotLocked(now))
	}
	return out
}

// Cancel stops a job: a queued job flips straight to canceled (its runner
// never starts), a running job gets its context canceled and reaches the
// canceled state when its runner returns. Canceling a finished job returns
// ErrFinished.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		// Remove from the wait queue right away: the slot frees for new
		// submissions immediately, not when a worker reaches the tombstone.
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		j.finished = time.Now()
		m.kindLocked(j.kind).Canceled++
		m.finishLocked(j)
		snap := j.snapshotLocked(j.finished)
		m.mu.Unlock()
		j.cancel()
		return snap, nil
	case StateRunning:
		snap := j.snapshotLocked(time.Now())
		m.mu.Unlock()
		j.cancel() // worker finalizes the state when the runner returns
		return snap, nil
	default:
		snap := j.snapshotLocked(time.Now())
		m.mu.Unlock()
		return snap, ErrFinished
	}
}

// Metrics reads the ledger.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		Queued:     len(m.pending),
		Running:    m.running,
		Workers:    m.opt.Workers,
		QueueDepth: m.opt.QueueDepth,
		Kinds:      make(map[string]KindMetrics, len(m.kinds)),
	}
	for k, km := range m.kinds {
		c := *km
		if ran := c.Done + c.Failed; ran > 0 {
			c.MeanRunMS = float64(c.TotalRunMS) / float64(ran)
		}
		out.Kinds[string(k)] = c
	}
	return out
}

// worker claims and runs queued jobs until Drain empties the queue and
// flips draining.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.claim()
		if j == nil {
			return
		}
		res, err := runIsolated(j)

		m.mu.Lock()
		j.finished = time.Now()
		j.progress.Store(nil)
		km := m.kindLocked(j.kind)
		switch {
		case err == nil:
			j.state = StateDone
			j.result = res
			km.Done++
			km.TotalRunMS += j.finished.Sub(j.started).Milliseconds()
		case j.ctx.Err() != nil && errors.Is(err, context.Canceled):
			j.state = StateCanceled
			j.errMsg = err.Error()
			km.Canceled++
		default:
			j.state = StateFailed
			j.errMsg = err.Error()
			km.Failed++
			km.TotalRunMS += j.finished.Sub(j.started).Milliseconds()
		}
		m.running--
		if m.running == 0 {
			close(m.idle)
		}
		m.finishLocked(j)
		m.mu.Unlock()
		j.cancel() // release the context's resources
	}
}

// claim blocks for the next queued job, marking it running; nil means the
// manager drained and the worker should exit.
func (m *Manager) claim() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) == 0 && !m.draining {
		m.cond.Wait()
	}
	if len(m.pending) == 0 {
		return nil // draining, nothing left to run
	}
	j := m.pending[0]
	m.pending = m.pending[1:]
	j.state = StateRunning
	j.started = time.Now()
	m.running++
	if m.running == 1 {
		m.idle = make(chan struct{})
	}
	return j
}

// runIsolated executes the runner with panic isolation: a panicking learn
// must fail its own job, never kill the serving daemon.
func runIsolated(j *job) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: %s %s panicked: %v\n%s", j.kind, j.site, p, debug.Stack())
		}
	}()
	return j.run(j.ctx, func(msg string) { j.progress.Store(&msg) })
}

// Drain shuts the plane down: new submissions are rejected, every queued
// job is canceled (it never started), and running jobs are waited for
// until ctx expires — then they are canceled through their contexts and
// waited for again so no runner outlives the call. The worker pool exits;
// the manager stays readable (Get/List/Metrics) but accepts no more work.
// Quiesce is the gentler shutdown that runs queued jobs to completion
// instead of canceling them.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return fmt.Errorf("jobs: already drained")
	}
	m.draining = true
	now := time.Now()
	canceled := m.pending
	m.pending = nil
	for _, j := range canceled {
		j.state = StateCanceled
		j.finished = now
		j.run = nil
		m.kindLocked(j.kind).Canceled++
		m.finished++ // eviction can wait; the plane is shutting down
	}
	m.cond.Broadcast() // wake idle workers so they observe draining + exit
	m.mu.Unlock()
	for _, j := range canceled {
		j.cancel()
	}

	// Wait for running jobs, then force-cancel on deadline.
	var err error
	select {
	case <-m.idleNow():
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		var running []*job
		for _, j := range m.order {
			if j.state == StateRunning {
				running = append(running, j)
			}
		}
		m.mu.Unlock()
		for _, j := range running {
			j.cancel()
		}
	}
	m.wg.Wait()
	return err
}

// idleNow returns the current idle channel (closed when nothing runs).
func (m *Manager) idleNow() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idle
}

// Quiesce is the graceful sibling of Drain: new submissions are rejected
// immediately, but jobs already accepted — queued as well as running —
// execute to completion before the worker pool exits. This is the fleet
// shutdown contract ("no accepted job is dropped"): a learn that was
// 202-acknowledged finishes and persists even if SIGTERM lands while it
// is still waiting for a worker. Only when ctx expires first does
// Quiesce fall back to Drain semantics, canceling whatever is left. Like
// Drain, the manager stays readable afterwards but accepts no more work.
func (m *Manager) Quiesce(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return fmt.Errorf("jobs: already drained")
	}
	// Flipping draining with the queue intact is the whole mechanism:
	// claim keeps handing out pending jobs while draining and only tells
	// workers to exit once the queue is empty, so the pool runs it dry.
	m.draining = true
	m.cond.Broadcast() // wake idle workers so they can exit once dry
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Deadline hit: cancel the remainder, Drain-style.
	m.mu.Lock()
	now := time.Now()
	canceled := m.pending
	m.pending = nil
	for _, j := range canceled {
		j.state = StateCanceled
		j.finished = now
		j.run = nil
		m.kindLocked(j.kind).Canceled++
		m.finished++ // eviction can wait; the plane is shutting down
	}
	var running []*job
	for _, j := range m.order {
		if j.state == StateRunning {
			running = append(running, j)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range canceled {
		j.cancel()
	}
	for _, j := range running {
		j.cancel()
	}
	m.wg.Wait()
	return ctx.Err()
}
