// Command wrapserved is the HTTP extraction daemon: it loads a versioned
// wrapper store and serves every site's active wrapper over HTTP, with
// hot-swap on promote/rollback (no restart), drift monitoring, admission
// control with backpressure, an asynchronous maintenance plane (learning
// and repair run as background jobs, never inside an HTTP request), and
// graceful drain on SIGTERM.
//
// Usage:
//
//	wrapserved -store wrappers.json -addr :8080
//	wrapserved -store wrappers.json -dict names.txt -kind xpath   # enables /v1/learn + /v1/repair
//	wrapserved -store wrappers.json -dict names.txt -auto-repair  # drifted sites heal themselves
//	wrapserved -store wrappers.json -shards 4                     # consistent-hash fleet, one per core
//	wrapserved -store wrappers.json -store-backend log            # append-only segmented-log durability
//	wrapserved -store wrappers.json -audit-log audit.jsonl        # tamper-evident lifecycle ledger
//	wrapserved -store wrappers.json -debug-addr localhost:6060    # net/http/pprof on a side listener
//
// Multi-process fleet (one shard per process, a forwarding front end):
//
//	wrapserved -role shard -shard-index 0 -shards 2 -store s0.json -addr :8081
//	wrapserved -role shard -shard-index 1 -shards 2 -store s1.json -addr :8082
//	wrapserved -role front -peers localhost:8081,localhost:8082 -addr :8080
//
// Offline audit verbs (no daemon; exit 0 intact, 4 tampered, 1 other):
//
//	wrapserved -audit-verify audit.jsonl
//	wrapserved -audit-export audit.jsonl   # verify + dump checkpoint roots
//
// Endpoints:
//
//	POST /v1/extract   {"site":"s","page":{"html":"..."}} or {"site":"s","pages":[...]}
//	GET  /healthz      liveness + readiness (503 while draining)
//	GET  /metrics      per-site QPS, latency quantiles, runtime health, gate + job counters
//	GET  /v1/sites     serving state of every site
//	POST /v1/promote   {"site":"s","version":2}
//	POST /v1/rollback  {"site":"s"}
//	POST /v1/learn     {"site":"s","pages":[html,...]} or {"site":"s","corpus_dir":"dir"}
//	                   → 202 {"job_id":...}; learns, validates, promotes, hot-swaps
//	                   (corpus_dir is confined under -learn-corpus-root and
//	                   rejected when that flag is unset)
//	POST /v1/repair    {"site":"s","pages":["<html>...",...]} → 202 {"job_id":...}
//	GET  /v1/jobs      every retained job; GET /v1/jobs/{id} one job
//	POST /v1/jobs/{id}/cancel
//	GET  /v1/audit     the lifecycle audit ledger's counters + newest records
//	POST /v1/drain     {"timeout_ms":n} optional; flip /healthz to 503, run the job planes dry
//
// Durability is pluggable (-store-backend). The default, file, keeps the
// original format: one atomic JSON registry at -store, rewritten in full
// after every lifecycle mutation. With -store-backend=log the daemon
// appends one CRC-framed, fsync'd record per lifecycle event to a
// segmented log directory (-store-log-dir, default <store>.log) with
// snapshot rotation + compaction and torn-tail crash recovery; an empty
// log seeds itself from the JSON registry at -store once, so switching
// backends is one flag. With -audit-log PATH every lifecycle event
// (learn, candidate, promote, rollback, drift trip, auto-repair) is also
// recorded in a hash-chained, Merkle-checkpointed audit ledger whose
// integrity is verifiable offline (see GET /v1/audit).
//
// The hot path is admission-controlled: at most -max-inflight requests
// extract concurrently, at most -queue more wait, and everything beyond
// that is rejected immediately with 429 and a Retry-After header — the
// daemon sheds load instead of collapsing under it. Every request gets a
// deadline (-timeout, shortenable per request via timeout_ms).
//
// Learning and repair are maintenance-plane work: submissions enqueue onto
// a bounded job queue (-job-queue) drained by -learn-workers background
// workers, fully isolated from the extract pools — POST /v1/repair answers
// 202 in milliseconds even while the extract gate is saturated. /v1/learn
// and /v1/repair need an annotator to re-learn with; start the daemon with
// -dict (one dictionary entry per line) to enable them. Successful admin
// mutations (promote, rollback, finished learn/repair jobs) are persisted
// back to -store.
//
// With -auto-repair (requires -dict and monitoring), the daemon closes the
// maintenance loop autonomously: a drift trip enqueues a repair job that
// re-learns the site from its -recent-pages most recently served pages, at
// most once per -auto-repair-gap per site — a drifted site heals with no
// operator in the loop, and a repair that loses held-out validation leaves
// the incumbent serving.
//
// Whatever the role, the process is one router over a consistent-hash
// ring of -shards partitions, and each partition is a node here, a shard
// process elsewhere, or not served here. A node is a slice of the registry
// with the whole serving stack round it (monitor, dispatcher, gate, job
// plane, optional auto-repair), assembled in one place, serve.NewNode.
// Standalone is a fleet of one: a ring of one partition, one node over the
// whole registry. With -shards N every partition is a node behind the one
// listener, each owning the sites the ring assigns it; requests and
// lifecycle events route to the owning node, /metrics aggregates across
// the nodes, and admin mutations persist through the one shared backend.
// -vnodes tunes the ring (must match across restarts for a stable
// assignment); size -shards to the host's cores. Capacities are per node
// and multiply: -max-inflight, -queue, -learn-workers and -job-queue size
// each node, so a 4-shard fleet admits 4x the standalone traffic. -role
// shard is one such node as its own process — partition -shard-index of a
// -shards ring, refusing sites the ring assigns elsewhere (421) — and
// -role front owns no node at all: it forwards every partition to the
// shard processes at -peers after a ring-agreement handshake with each.
// Every role refuses requests pinned to a different ring (503), answers
// /healthz and /metrics in one shape, and serves POST /v1/drain.
//
// Every role drains the same way. On SIGTERM or SIGINT the daemon flips
// /healthz to 503 (load balancers steer away, new job submissions are
// refused, auto-repair stops), finishes in-flight requests, then runs the
// job planes dry: every job that was accepted — queued or running —
// completes, and only at -drain-timeout is whatever is left canceled. A
// front asks each peer to do that last step (POST /v1/drain) after its own
// listener closed. Then it logs "drained cleanly" and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autowrap/internal/annotate"
	"autowrap/internal/audit"
	"autowrap/internal/drift"
	"autowrap/internal/engine"
	"autowrap/internal/serve"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/store/filestore"
	"autowrap/internal/store/logstore"
)

// options carries the parsed flag set. The node-sizing flags fill node
// (and maintainer) directly: node is the template every node of the process
// is a copy of, completed by boot with what is per process and per node.
type options struct {
	storePath    string
	storeBackend string
	storeLogDir  string
	auditLog     string

	addr       string
	node       serve.NodeConfig
	maintainer serve.MaintainerOptions
	window     int
	dictPath   string
	kind       string
	drainT     time.Duration
	autoRepair bool

	shards int
	vnodes int

	role       string
	shardIndex int
	peers      string

	logSyncInterval time.Duration

	auditVerify string
	auditExport string

	debugAddr string
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if o.auditVerify != "" || o.auditExport != "" {
		os.Exit(runAuditVerb(*o, os.Stdout, os.Stderr))
	}
	if err := run(*o); err != nil {
		fmt.Fprintln(os.Stderr, "wrapserved:", err)
		os.Exit(1)
	}
}

// defineFlags declares every flag on fs; the options it returns are filled
// in when fs parses a command line.
func defineFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.storePath, "store", "wrappers.json", "wrapper store path (required; must exist)")
	fs.StringVar(&o.storeBackend, "store-backend", "file", "durable store backend: file (atomic JSON registry) | log (append-only segmented log, O(event) persists)")
	fs.StringVar(&o.storeLogDir, "store-log-dir", "", "segment directory for -store-backend=log (default <store>.log; an empty log seeds itself from -store)")
	fs.StringVar(&o.auditLog, "audit-log", "", "append lifecycle events to a hash-chained audit ledger at this path (empty disables)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.node.Workers, "workers", 0, "extraction workers per batch request (0 = GOMAXPROCS)")
	fs.IntVar(&o.node.Gate.MaxInFlight, "max-inflight", 64, "max concurrently executing extract requests")
	fs.IntVar(&o.node.Gate.MaxQueue, "queue", 0, "max extract requests waiting for a slot (0 = 4x max-inflight, negative disables queueing)")
	fs.DurationVar(&o.node.Gate.RetryAfter, "retry-after", time.Second, "Retry-After hint attached to 429 responses")
	fs.DurationVar(&o.node.RequestTimeout, "timeout", 30*time.Second, "per-request extraction deadline")
	fs.IntVar(&o.node.MaxPages, "max-pages", 256, "max pages per extract request")
	fs.IntVar(&o.window, "window", 32, "drift-monitor sliding window in pages (0 disables monitoring)")
	fs.StringVar(&o.dictPath, "dict", "", "dictionary file enabling /v1/learn and /v1/repair (one entry per line)")
	fs.StringVar(&o.kind, "kind", "xpath", "re-learn wrapper language for /v1/learn and /v1/repair: xpath | lr")
	fs.DurationVar(&o.drainT, "drain-timeout", 30*time.Second, "max time to wait for in-flight requests and running jobs on shutdown")
	fs.IntVar(&o.node.Jobs.Workers, "learn-workers", 1, "background learn/repair job workers (isolated from the extract pools)")
	fs.IntVar(&o.node.Jobs.QueueDepth, "job-queue", 16, "max queued learn/repair jobs before submissions get 429")
	fs.StringVar(&o.node.LearnCorpusRoot, "learn-corpus-root", "", "directory /v1/learn corpus_dir paths are confined to (empty disables corpus_dir)")
	fs.IntVar(&o.node.RecentPages, "recent-pages", 64, "recently served pages cached per site as auto-repair fuel (only cached with -auto-repair; 0 disables)")
	fs.BoolVar(&o.autoRepair, "auto-repair", false, "auto-enqueue repair jobs when drift trips (needs -dict, -window > 0 and -recent-pages > 0)")
	fs.DurationVar(&o.maintainer.Interval, "auto-repair-interval", 2*time.Second, "scan period for tripped sites the trip hook could not enqueue")
	fs.DurationVar(&o.maintainer.MinGap, "auto-repair-gap", time.Minute, "per-site minimum time between auto-repair submissions")
	fs.IntVar(&o.shards, "shards", 1, "run a sharded fleet: N consistent-hash partitions, each with its own dispatcher, gate, monitor and job plane (1 = single unsharded server)")
	fs.IntVar(&o.vnodes, "vnodes", shard.DefaultVNodes, "virtual nodes per shard on the routing ring (must match across restarts)")
	fs.StringVar(&o.role, "role", "", "fleet role: empty (single process, optionally in-process sharded via -shards), shard (boot exactly partition -shard-index of an N=-shards ring) or front (forward to -peers, no local store)")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "which ring partition this process owns (-role shard; 0 <= k < -shards)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated host:port shard addresses, ring order (-role front; ring size = number of peers)")
	fs.DurationVar(&o.logSyncInterval, "store-log-sync-interval", 0, "group-commit fsync interval for -store-backend=log (0 = fsync every append; >0 trades a bounded loss window for throughput)")
	fs.StringVar(&o.auditVerify, "audit-verify", "", "verify the hash-chained audit ledger at this path and exit (0 intact, 4 tampered, 1 other)")
	fs.StringVar(&o.auditExport, "audit-export", "", "verify the ledger at this path, dump its Merkle checkpoint roots as JSON lines, and exit (same exit codes as -audit-verify)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address serving net/http/pprof (e.g. localhost:6060); keep it off the public network")
	return o
}

// openBackend opens the durable store backend the flags select. The
// file backend keeps the original single-JSON-registry behaviour (and
// the original "store must exist" contract); the log backend opens (or
// creates) the segment directory, recovering a torn tail, and seeds an
// empty log from the JSON registry at -store when one exists.
func openBackend(o options, logger *log.Logger) (store.Backend, error) {
	switch o.storeBackend {
	case "file":
		if _, err := os.Stat(o.storePath); err != nil {
			return nil, fmt.Errorf("store %s: %w", o.storePath, err)
		}
		return filestore.Open(o.storePath)
	case "log":
		dir := o.storeLogDir
		if dir == "" {
			dir = o.storePath + ".log"
		}
		be, err := logstore.Open(dir, logstore.Options{SyncInterval: o.logSyncInterval})
		if err != nil {
			return nil, err
		}
		if rec := be.Recovered(); rec != nil {
			logger.Printf("store log %s: recovered torn tail (%s: %d byte(s) dropped at offset %d: %s)",
				dir, rec.Segment, rec.Dropped, rec.Offset, rec.Reason)
		}
		if be.Empty() {
			if _, err := os.Stat(o.storePath); err == nil {
				st, err := store.Load(o.storePath)
				if err != nil {
					be.Close()
					return nil, err
				}
				if err := be.SeedFrom(st); err != nil {
					be.Close()
					return nil, err
				}
				logger.Printf("store log %s: seeded from %s (%d site(s))", dir, o.storePath, st.Len())
			}
		}
		return be, nil
	default:
		return nil, fmt.Errorf("-store-backend %q: want file or log", o.storeBackend)
	}
}

// openLedger opens the audit ledger when -audit-log is set (nil ledger
// = auditing off; every ledger method is nil-safe).
func openLedger(o options, logger *log.Logger) (*audit.Ledger, error) {
	if o.auditLog == "" {
		return nil, nil
	}
	led, err := audit.Open(o.auditLog, audit.Options{})
	if err != nil {
		return nil, err
	}
	if n := led.RecoveredBytes(); n > 0 {
		logger.Printf("audit ledger %s: truncated %d torn byte(s) from the tail", o.auditLog, n)
	}
	return led, nil
}

// run boots the role's router and serves it until a signal drains it.
func run(o options) error {
	logger := log.New(os.Stderr, "wrapserved: ", log.LstdFlags)
	p, closeStores, err := boot(o, logger)
	if err != nil {
		return err
	}
	defer closeStores()

	// The pprof endpoints live on their own listener: the production
	// handler's static route table never exposes /debug/pprof/*.
	if o.debugAddr != "" {
		go func() {
			logger.Printf("pprof debug server on http://%s/debug/pprof/", o.debugAddr)
			logger.Printf("pprof server: %v", http.ListenAndServe(o.debugAddr, nil))
		}()
	}

	hs := serve.NewHTTPServer(p.Handler(), logger)
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(o.addr); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	// Graceful drain, the same for every role: flip readiness first so
	// load balancers steer away (each node stops its auto-repair loop with
	// it), let in-flight requests finish, then run the job planes dry —
	// nothing that was accepted is dropped; only at -drain-timeout is the
	// remainder canceled. The drain is one-shot per node: when a front end
	// already drained this shard over POST /v1/drain, SIGTERM just
	// finishes the listener.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Printf("%s: draining (up to %v)...", sig, o.drainT)
		p.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), o.drainT)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := p.Drain(ctx); err != nil {
			logger.Printf("job drain: remaining jobs canceled at deadline: %v", err)
		}
		logger.Printf("drained cleanly")
		return <-errc
	}
}

// boot validates the flags, opens what the role keeps on disk and
// assembles its router. -role front holds no store: it owns the ring (size
// = number of -peers, in ring order) and forwards every request to the
// owning shard process, after a handshake with each peer — fingerprint and
// shard index must agree; an unreachable peer degrades that partition
// instead of failing the boot. Every other role is a router over nodes
// built on one backend and one ledger: a node for every partition of the
// -shards ring, or with -role shard for partition -shard-index alone. The
// returned func closes backend and ledger once the router has drained.
func boot(o options, logger *log.Logger) (*serve.ShardRouter, func(), error) {
	switch o.role {
	case "":
	case "shard":
		if o.shards < 1 {
			return nil, nil, fmt.Errorf("-role shard needs -shards >= 1 (the ring size)")
		}
		if o.shardIndex < 0 || o.shardIndex >= o.shards {
			return nil, nil, fmt.Errorf("-shard-index %d out of range [0, %d)", o.shardIndex, o.shards)
		}
	case "front":
		peers := splitPeers(o.peers)
		if len(peers) == 0 {
			return nil, nil, fmt.Errorf("-role front needs -peers host:port,...")
		}
		if o.shards > 1 && o.shards != len(peers) {
			return nil, nil, fmt.Errorf("-shards %d disagrees with %d peer(s); the front sizes the ring from -peers", o.shards, len(peers))
		}
		ring := shard.NewRing(len(peers), o.vnodes)
		router, err := serve.NewForwardRouter(ring, peers, serve.ForwardOptions{RequestTimeout: o.node.RequestTimeout, Log: logger})
		if err != nil {
			return nil, nil, err
		}
		logger.Printf("front on %s: forwarding to %d shard(s) %v (ring %s)", o.addr, len(peers), peers, ring.Fingerprint())
		return router, func() {}, nil
	default:
		return nil, nil, fmt.Errorf("-role %q: want shard, front or empty", o.role)
	}
	if o.autoRepair {
		switch {
		case o.dictPath == "":
			return nil, nil, fmt.Errorf("-auto-repair needs -dict (no annotator to re-learn with)")
		case o.window <= 0:
			return nil, nil, fmt.Errorf("-auto-repair needs drift monitoring (-window > 0)")
		case o.node.RecentPages <= 0:
			return nil, nil, fmt.Errorf("-auto-repair needs -recent-pages > 0 (no cached pages to re-learn from)")
		}
	}
	// The dictionary is read and the kind validated once; every node of a
	// fleet shares the one re-learning recipe behind /v1/learn, /v1/repair
	// and auto-repair.
	tmpl := o.node
	if o.dictPath != "" {
		dict, err := annotate.ReadDictionary(o.dictPath)
		if err != nil {
			return nil, nil, err
		}
		if tmpl.Spec, err = engine.Recipe(dict, o.kind); err != nil {
			return nil, nil, err
		}
	}
	if o.window > 0 {
		tmpl.Monitor = &drift.Policy{Window: o.window}
	}
	if o.autoRepair {
		o.maintainer.Log = logger
		tmpl.Maintainer = &o.maintainer
	}

	be, err := openBackend(o, logger)
	if err != nil {
		return nil, nil, err
	}
	led, err := openLedger(o, logger)
	if err != nil {
		be.Close()
		return nil, nil, err
	}
	closeStores := func() {
		be.Close()
		led.Close()
	}

	// One router over the ring, whatever the role: every partition is a
	// node of this process, or with -role shard only -shard-index is and
	// the others are answered 421. Standalone is the ring of one.
	ring := shard.NewRing(o.shards, o.vnodes)
	sites, served := 0, 0
	tmpl.Backend = be // shared; each node reports only its own events
	tmpl.Audit = led
	tmpl.Log = logger
	router, err := serve.NewShardRouter(ring, func(k int) (*serve.Server, error) {
		if o.role == "shard" && k != o.shardIndex {
			return nil, nil // another process's partition
		}
		cfg := tmpl
		cfg.Shard = k
		// Boot from the owned partition only, at a validation cost
		// proportional to it: the backend may hold the full registry
		// (every shard process sharing one seed file) or a pre-split one.
		var err error
		if cfg.Store, err = be.LoadPartition(ring, k); err != nil {
			return nil, err
		}
		sites += cfg.Store.Len()
		served++
		return serve.NewNode(cfg)
	})
	if err != nil {
		closeStores()
		return nil, nil, err
	}
	logger.Printf("serving %d site(s) from %s on %s (%d of %d partition(s), ring %s; maintenance plane %s, auto-repair %s)",
		sites, o.storePath, o.addr, served, ring.Shards(), ring.Fingerprint(), enabledWord(tmpl.Spec != nil), enabledWord(o.autoRepair))
	return router, closeStores, nil
}

// splitPeers parses the -peers list, dropping empty elements so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func enabledWord(b bool) string {
	if b {
		return "enabled"
	}
	return "disabled"
}
