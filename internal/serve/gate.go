package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrOverloaded reports an admission rejection: the gate's executing slots
// and its wait queue are both full. The HTTP layer maps it to 429 with a
// Retry-After header — load is shed at the door with a cheap, explicit
// signal instead of letting unbounded requests pile onto the extraction
// pool until latency (and memory) collapse.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// GateOptions sizes the admission gate.
type GateOptions struct {
	// MaxInFlight bounds concurrently executing requests (default 64).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxInFlight (default 4 x MaxInFlight; 0 selects the default, negative
	// disables queueing — reject as soon as the slots are full).
	MaxQueue int
	// RetryAfter is the client back-off hint attached to rejections
	// (default 1s).
	RetryAfter time.Duration
}

func (o GateOptions) withDefaults() GateOptions {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Gate is the serving hot path's admission controller: a counting
// semaphore over execution slots plus a bounded wait queue. Requests beyond
// slots+queue are rejected immediately with ErrOverloaded; queued requests
// still honor their context deadline, so a caller never waits longer for
// admission than it would for the work itself.
type Gate struct {
	opt   GateOptions
	slots chan struct{} // execution permits, capacity MaxInFlight
	queue chan struct{} // wait permits, capacity MaxQueue
	// release is what Acquire hands every admitted request, built once so
	// that admission allocates nothing.
	release func()

	inflight atomic.Int64
	waiting  atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	timedOut atomic.Int64
}

// NewGate builds an admission gate; zero options select defaults.
func NewGate(opt GateOptions) *Gate {
	opt = opt.withDefaults()
	g := &Gate{
		opt:   opt,
		slots: make(chan struct{}, opt.MaxInFlight),
		queue: make(chan struct{}, opt.MaxQueue),
	}
	g.release = func() {
		g.inflight.Add(-1)
		<-g.slots
	}
	return g
}

// RetryAfter is the configured client back-off hint.
func (g *Gate) RetryAfter() time.Duration { return g.opt.RetryAfter }

// Acquire admits one request: it returns a release function to defer, or
// ErrOverloaded when slots and queue are both full, or the context's error
// when the deadline expires while queued. The fast path (free slot) is one
// channel send.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	select {
	case g.slots <- struct{}{}:
		return g.admit(), nil
	default:
	}
	// Slots full: try to take a queue permit; reject when the queue is full
	// too — that, not slow service, is the overload signal.
	select {
	case g.queue <- struct{}{}:
	default:
		g.rejected.Add(1)
		return nil, ErrOverloaded
	}
	g.waiting.Add(1)
	defer func() {
		g.waiting.Add(-1)
		<-g.queue
	}()
	select {
	case g.slots <- struct{}{}:
		return g.admit(), nil
	case <-ctx.Done():
		// The caller's own deadline expired while queued. That is a
		// client timeout, not overload shedding — counting it as rejected
		// would make alerting on the rejected counter fire for slow
		// clients instead of a full queue.
		g.timedOut.Add(1)
		return nil, context.Cause(ctx)
	}
}

func (g *Gate) admit() func() {
	g.inflight.Add(1)
	g.admitted.Add(1)
	return g.release
}

// GateSnapshot is a point-in-time view of the gate for /metrics.
// Rejected counts only queue-full overload shedding; TimedOut counts
// queued requests whose own context deadline expired first — the two
// signals mean different things to an operator (add capacity vs. slow
// clients) and are never conflated.
type GateSnapshot struct {
	InFlight    int64 `json:"in_flight"`
	Waiting     int64 `json:"waiting"`
	Admitted    int64 `json:"admitted"`
	Rejected    int64 `json:"rejected"`
	TimedOut    int64 `json:"timed_out"`
	MaxInFlight int   `json:"max_in_flight"`
	MaxQueue    int   `json:"max_queue"`
}

// Snapshot reads the gate's counters.
func (g *Gate) Snapshot() GateSnapshot {
	return GateSnapshot{
		InFlight:    g.inflight.Load(),
		Waiting:     g.waiting.Load(),
		Admitted:    g.admitted.Load(),
		Rejected:    g.rejected.Load(),
		TimedOut:    g.timedOut.Load(),
		MaxInFlight: g.opt.MaxInFlight,
		MaxQueue:    g.opt.MaxQueue,
	}
}
