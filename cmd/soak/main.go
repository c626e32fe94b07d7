// Command soak is the deterministic soak-and-chaos harness for the
// serving plane: it boots a complete wrapserved fleet in-process (1 shard
// or N, behind a real TCP listener), drives mixed extract/learn/repair
// traffic from generated sitegen corpora at a target QPS, and concurrently
// injects the faults a production fleet meets — template-drift storms,
// malformed and truncated bodies, corrupt store entries written between
// epochs, canceled and queue-full jobs, slow and disconnecting clients,
// mid-run promote/rollback flips — while asserting hard invariants the
// whole time. It exits 0 only when every invariant held; any violation is
// printed as "INVARIANT VIOLATED: <name>: <detail>" and the exit code is 1.
//
// Usage:
//
//	soak -duration 45s -seed 1 -shards 4        # the CI smoke run
//	soak -duration 15m -shards 4 -qps 200       # the nightly long mode
//	soak -duration 45s -store-backend log       # segmented-log durability under chaos
//	soak -duration 15s -shards 2 -multiproc     # real shard processes + front; kill one mid-run
//	soak -duration 5s -break leak               # prove the harness bites
//
// Invariants (the names a violation is reported under):
//
//	goroutine-leak     goroutine identities return to the pre-boot baseline
//	heap-bounded       HeapAlloc does not grow monotonically across GC cycles
//	no-stuck-jobs      no job is left running past its deadline, ever
//	gate-ledger        client-observed admitted/rejected/timed-out == gate counters
//	jobs-ledger        per-kind submitted == done + failed + canceled; no
//	                   job canceled that the harness did not cancel itself
//	metrics-consistent fleet /metrics == Σ per-shard == Σ per-site, exactly
//	family-purity      every 200 response serves one wrapper family, matching
//	                   its reported version (no hot-swap bleed mid-request)
//	drift-healed       auto-repair heals every injected drift within the run
//	clean-drain        SetDraining → Shutdown → Drain completes in budget
//	no-panic           no 5xx surprises, no dead connections on sane requests
//	store-recovery     with -store-backend file: a corrupt registry entry is
//	                   overwritten by the next persist mid-run; at end, strict
//	                   Load refuses a poisoned file naming the site while
//	                   LoadRecovered salvages the rest. With -store-backend
//	                   log: a torn frame injected into the live segment
//	                   mid-run never disturbs serving, and the end-of-run
//	                   kill-and-reopen drill recovers the log to a consistent
//	                   registry — reported, idempotent, and again after fresh
//	                   tail garbage
//	audit-chain-intact the audit ledger the run wrote verifies from genesis:
//	                   every hash link and Merkle checkpoint holds, and the
//	                   run's lifecycle events (promotes at minimum) are there
//
// Determinism: every fault schedule — storm times and victims, malformed
// body streams, the corrupt-entry victim, burst timing — is derived from
// -seed, so a failure at seed 7 reproduces at seed 7. (Goroutine
// interleaving is the operating system's; the faults are ours.)
//
// -break deliberately sabotages one invariant (leak | stuck | heal |
// ledger | audit) to prove the harness fails loudly rather than vacuously;
// CI runs one sabotaged mode and requires a non-zero exit. -break audit
// flips one byte of the closed ledger before verification, which
// audit-chain-intact must catch naming the damaged sequence number.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"autowrap/internal/chaos"
	"autowrap/internal/shard"
)

type options struct {
	duration     time.Duration
	seed         int64
	shards       int
	qps          int
	sites        int
	vnodes       int
	storeBackend string
	breakMode    string
	multiproc    bool
	verbose      bool
}

func main() {
	var o options
	flag.DurationVar(&o.duration, "duration", 45*time.Second, "total soak budget (traffic runs ~72% of it; healing and teardown use the rest)")
	flag.Int64Var(&o.seed, "seed", 1, "master seed for corpora, traffic mix and the whole fault schedule")
	flag.IntVar(&o.shards, "shards", 1, "serving shards (1 = single server, >1 = consistent-hash fleet)")
	flag.IntVar(&o.qps, "qps", 120, "target request rate across all traffic workers")
	flag.IntVar(&o.sites, "sites", 4, "learned dealer sites serving extract traffic")
	flag.IntVar(&o.vnodes, "vnodes", shard.DefaultVNodes, "virtual nodes per shard on the routing ring")
	flag.StringVar(&o.storeBackend, "store-backend", "file", "durability backend under chaos: file (atomic JSON registry) | log (append-only segmented log)")
	flag.StringVar(&o.breakMode, "break", "", "deliberately violate one invariant to prove the harness catches it: leak | stuck | heal | ledger | audit")
	flag.BoolVar(&o.multiproc, "multiproc", false, "spawn real wrapserved shard processes behind a forwarding front, kill one mid-run, and assert partial availability + ordered drain")
	flag.BoolVar(&o.verbose, "v", false, "log every fault injection and invariant checkpoint")
	flag.Parse()

	if o.multiproc {
		if o.breakMode != "" {
			fmt.Fprintln(os.Stderr, "soak: -break is not supported with -multiproc")
			os.Exit(2)
		}
		os.Exit(runMultiproc(o))
	}

	switch o.breakMode {
	case "", "leak", "stuck", "heal", "ledger", "audit":
	default:
		fmt.Fprintf(os.Stderr, "soak: unknown -break mode %q\n", o.breakMode)
		os.Exit(2)
	}
	if o.storeBackend != "file" && o.storeBackend != "log" {
		fmt.Fprintf(os.Stderr, "soak: unknown -store-backend %q (want file or log)\n", o.storeBackend)
		os.Exit(2)
	}
	if o.shards < 1 || o.sites < 1 || o.qps < 1 || o.duration < 5*time.Second {
		fmt.Fprintln(os.Stderr, "soak: need -shards >= 1, -sites >= 1, -qps >= 1, -duration >= 5s")
		os.Exit(2)
	}

	h, err := newHarness(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
	h.run()
	if h.viol.report(os.Stderr) {
		os.Exit(1)
	}
	fmt.Printf("soak: all invariants held (%s, seed %d, %d shard(s), %d requests)\n",
		o.duration, o.seed, o.shards, h.ledger.total())
}

// run executes the whole timeline: traffic + chaos, heal-wait, quiesce,
// drain, teardown, post-mortem invariants. Violations accumulate in
// h.viol instead of aborting — a soak that dies on the first anomaly
// hides every anomaly behind it.
func (h *harness) run() {
	defer os.RemoveAll(h.workDir)

	h.startHeapSampler()
	h.startMonitor()

	if h.o.breakMode == "leak" {
		// A goroutine parked on a channel nobody writes: the classic leak.
		go func() { <-make(chan struct{}) }()
	}

	trafficDur := time.Duration(float64(h.o.duration) * 0.72)
	h.logf("traffic: %v at %d qps against %s (%d shard(s))", trafficDur, h.o.qps, h.baseURL, h.o.shards)
	h.runTraffic(trafficDur)

	h.awaitHeals(time.Now().Add(h.o.duration - trafficDur + 15*time.Second))
	// The production drain's first step: readiness flips, which stops every
	// node's auto-repair loop, so the ledgers below compare settled state.
	h.plane.SetDraining(true)
	h.awaitJobsIdle(20 * time.Second)

	if h.o.breakMode == "ledger" {
		// One valid extract the client ledger never hears about.
		h.rawUnrecordedExtract()
	}

	h.checkGateLedger()
	h.checkMetricsConsistent()
	h.checkJobsLedger()

	h.drainAndTeardown()

	h.stopMonitor()
	h.checkGoroutineBaseline()
	h.checkHeapBounded()
	rng := rand.New(rand.NewSource(h.o.seed + 7))
	if h.o.storeBackend == "log" {
		h.checkLogRecovery(rng)
	} else {
		h.checkStoreRecovery(rng)
	}
	if h.o.breakMode == "audit" {
		// Silent at-rest tampering of the closed ledger: one flipped bit,
		// which the chain walk must pin to a sequence number.
		if off, err := chaos.FlipByte(h.auditPath, rng); err != nil {
			h.log.Printf("break audit: %v", err)
		} else {
			h.logf("break audit: flipped a bit at byte %d of %s", off, h.auditPath)
		}
	}
	h.checkAuditChain()
}

func (h *harness) logf(format string, args ...any) {
	if h.o.verbose {
		h.log.Printf(format, args...)
	}
}
