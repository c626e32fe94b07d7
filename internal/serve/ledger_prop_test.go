package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateLedgerProperty hammers one Gate from many goroutines with a mix
// of plain, deadline-bearing, and pre-canceled acquires, while every
// worker tallies its own view of each outcome. The property under test is
// the one the soak harness's gate-ledger invariant leans on: the gate's
// counters are an exact ledger of client-observable outcomes — not
// sampled, not approximate — and its gauges never escape their
// configured bounds, even mid-storm.
func TestGateLedgerProperty(t *testing.T) {
	const (
		workers     = 8
		iters       = 2000
		maxInFlight = 4
		maxQueue    = 8
	)
	g := NewGate(GateOptions{MaxInFlight: maxInFlight, MaxQueue: maxQueue,
		RetryAfter: time.Millisecond})
	hist := &latencyHist{}

	var admitted, rejected, timedOut atomic.Int64

	// Snapshot checker: runs concurrently with the storm, asserting the
	// mid-run properties that must hold at every instant — gauge bounds,
	// counter monotonicity, and bounded skew between the server ledger and
	// what clients have recorded. The client counters are read on both
	// sides of the snapshot: the checker can be descheduled between its
	// reads for arbitrarily long, so only the sandwich
	// clientsBefore − workers ≤ server ≤ clientsAfter + workers is sound
	// (the server counts before the client classifies, and at most one
	// acquire per worker is counted on one side but not yet the other).
	clients := func() [3]int64 {
		return [3]int64{admitted.Load(), rejected.Load(), timedOut.Load()}
	}
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		var prev GateSnapshot
		for {
			before := clients()
			s := g.Snapshot()
			after := clients()
			if s.InFlight < 0 || s.InFlight > maxInFlight {
				t.Errorf("in_flight gauge escaped [0,%d]: %d", maxInFlight, s.InFlight)
			}
			if s.Waiting < 0 || s.Waiting > maxQueue {
				t.Errorf("waiting gauge escaped [0,%d]: %d", maxQueue, s.Waiting)
			}
			if s.Admitted < prev.Admitted || s.Rejected < prev.Rejected ||
				s.TimedOut < prev.TimedOut {
				t.Errorf("counters went backwards: %+v after %+v", s, prev)
			}
			for i, skew := range []struct {
				name   string
				server int64
			}{
				{"admitted", s.Admitted},
				{"rejected", s.Rejected},
				{"timed_out", s.TimedOut},
			} {
				if skew.server < before[i]-workers || skew.server > after[i]+workers {
					t.Errorf("%s ledger skew beyond in-flight bound: server=%d clients=[%d,%d]",
						skew.name, skew.server, before[i], after[i])
				}
			}
			prev = s
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch roll := rng.Float64(); {
				case roll < 0.25:
					// Deadline that often expires while queued.
					ctx, cancel = context.WithTimeout(ctx,
						time.Duration(rng.Intn(200))*time.Microsecond)
				case roll < 0.35:
					// Already-dead context: may still win a free slot.
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				release, err := g.Acquire(ctx)
				switch {
				case err == nil:
					start := time.Now()
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(120)) * time.Microsecond)
					}
					hist.Record(time.Since(start))
					release()
					admitted.Add(1)
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				default:
					timedOut.Add(1)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	checker.Wait()

	// Final ledger: exact identity, no residue in the gauges.
	s := g.Snapshot()
	if s.InFlight != 0 || s.Waiting != 0 {
		t.Errorf("gauges not drained: in_flight=%d waiting=%d", s.InFlight, s.Waiting)
	}
	if got, want := admitted.Load()+rejected.Load()+timedOut.Load(), int64(workers*iters); got != want {
		t.Fatalf("clients classified %d outcomes, want %d", got, want)
	}
	if s.Admitted != admitted.Load() {
		t.Errorf("admitted: server=%d clients=%d", s.Admitted, admitted.Load())
	}
	if s.Rejected != rejected.Load() {
		t.Errorf("rejected: server=%d clients=%d", s.Rejected, rejected.Load())
	}
	if s.TimedOut != timedOut.Load() {
		t.Errorf("timed_out: server=%d clients=%d", s.TimedOut, timedOut.Load())
	}
	if s.MaxInFlight != maxInFlight || s.MaxQueue != maxQueue {
		t.Errorf("config echo wrong: %+v", s)
	}

	// Histogram ledger: every recorded latency landed in exactly one
	// bucket, and the quantile estimator stays inside the observed range
	// and monotone in q.
	var bucketSum int64
	for i := range hist.buckets {
		bucketSum += hist.buckets[i].Load()
	}
	if bucketSum != hist.count.Load() {
		t.Errorf("bucket sum %d != count %d", bucketSum, hist.count.Load())
	}
	if hist.count.Load() != admitted.Load() {
		t.Errorf("hist count %d != admitted %d", hist.count.Load(), admitted.Load())
	}
	p50, p99, p100 := hist.Quantile(0.50), hist.Quantile(0.99), hist.Quantile(1)
	if p50 < 0 || p50 > p99 || p99 > p100*1.5+1 {
		t.Errorf("quantiles not monotone/sane: p50=%g p99=%g p100=%g", p50, p99, p100)
	}
	if maxUS := float64(hist.max.Load()); p100 > maxUS*1.5+1 {
		t.Errorf("p100 %g beyond max*1.5 %g", p100, maxUS*1.5)
	}
}
