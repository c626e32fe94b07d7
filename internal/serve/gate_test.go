package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"autowrap/internal/serve"
	"autowrap/internal/testutil/race"
)

func TestGateFastPath(t *testing.T) {
	g := serve.NewGate(serve.GateOptions{MaxInFlight: 2})
	rel1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if snap.InFlight != 2 || snap.Admitted != 2 || snap.Rejected != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	rel1()
	rel2()
	if got := g.Snapshot().InFlight; got != 0 {
		t.Fatalf("in-flight after release = %d", got)
	}
}

// TestGateAcquireAllocFree: admission and release allocate nothing — the
// release func is the gate's own, not a closure a request.
func TestGateAcquireAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instruments allocation; budgets describe production builds")
	}
	g := serve.NewGate(serve.GateOptions{MaxInFlight: 2})
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		release, err := g.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}); n != 0 {
		t.Fatalf("Acquire + release allocates %.1f times, want 0", n)
	}
}

func TestGateRejectsWhenSlotsAndQueueFull(t *testing.T) {
	g := serve.NewGate(serve.GateOptions{MaxInFlight: 1, MaxQueue: -1}) // no queue
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := g.Acquire(context.Background()); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("second acquire = %v, want ErrOverloaded", err)
	}
	if got := g.Snapshot().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestGateQueueAdmitsWhenSlotFrees(t *testing.T) {
	g := serve.NewGate(serve.GateOptions{MaxInFlight: 1, MaxQueue: 1})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	go func() {
		rel2, err := g.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			close(admitted)
			return
		}
		close(admitted)
		rel2()
	}()
	// Wait until the second request is queued, then free the slot.
	deadline := time.Now().Add(2 * time.Second)
	for g.Snapshot().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	rel()
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("queued request was not admitted after release")
	}
}

func TestGateQueuedRequestHonorsDeadline(t *testing.T) {
	g := serve.NewGate(serve.GateOptions{MaxInFlight: 1, MaxQueue: 4})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want DeadlineExceeded", err)
	}
	if got := g.Snapshot().Waiting; got != 0 {
		t.Fatalf("waiting after deadline = %d, want 0 (queue slot returned)", got)
	}
}

// TestGateTimedOutNotCountedAsRejected pins the satellite bugfix: a queued
// request whose own deadline expires is a client timeout, not overload
// shedding — it must land in TimedOut, never in Rejected, so alerting on
// the rejected counter keeps meaning "queue full".
func TestGateTimedOutNotCountedAsRejected(t *testing.T) {
	g := serve.NewGate(serve.GateOptions{MaxInFlight: 1, MaxQueue: 1})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	// A queued request timing out on its own deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	if _, err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want DeadlineExceeded", err)
	}
	cancel()
	snap := g.Snapshot()
	if snap.TimedOut != 1 || snap.Rejected != 0 {
		t.Fatalf("after queued timeout: TimedOut=%d Rejected=%d, want 1/0", snap.TimedOut, snap.Rejected)
	}

	// A genuine queue-full rejection still counts as rejected: occupy the
	// single queue slot with a waiter, then overflow it.
	waiterIn := make(chan struct{})
	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	go func() {
		close(waiterIn)
		g.Acquire(waiterCtx) //nolint:errcheck — canceled below
	}()
	<-waiterIn
	deadline := time.Now().Add(2 * time.Second)
	for g.Snapshot().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := g.Acquire(context.Background()); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("overflow acquire = %v, want ErrOverloaded", err)
	}
	waiterCancel()
	snap = g.Snapshot()
	if snap.Rejected != 1 {
		t.Fatalf("after queue-full: Rejected=%d, want 1", snap.Rejected)
	}
}

// TestGateBoundedUnderStorm hammers the gate and checks the hard invariant:
// admitted concurrency never exceeds MaxInFlight, and every request either
// got admitted or rejected (no lost requests, no deadlock).
func TestGateBoundedUnderStorm(t *testing.T) {
	const inflight, queue, callers = 4, 8, 64
	g := serve.NewGate(serve.GateOptions{MaxInFlight: inflight, MaxQueue: queue})
	var wg sync.WaitGroup
	var mu sync.Mutex
	cur, peak, admitted, rejected := 0, 0, 0, 0
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := g.Acquire(context.Background())
			if err != nil {
				mu.Lock()
				rejected++
				mu.Unlock()
				return
			}
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			admitted++
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			rel()
		}()
	}
	wg.Wait()
	if peak > inflight {
		t.Fatalf("peak concurrency %d exceeded MaxInFlight %d", peak, inflight)
	}
	if admitted+rejected != callers {
		t.Fatalf("admitted %d + rejected %d != %d callers", admitted, rejected, callers)
	}
	if admitted < inflight+queue {
		t.Fatalf("only %d admitted; slots+queue = %d should all have served",
			admitted, inflight+queue)
	}
	snap := g.Snapshot()
	if snap.Admitted != int64(admitted) || snap.Rejected != int64(rejected) {
		t.Fatalf("gate counters %+v disagree with observed %d/%d", snap, admitted, rejected)
	}
}
