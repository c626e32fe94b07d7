// The serving plane's one HTTP surface. Every process — standalone, an
// in-process fleet, a shard process, a forwarding front — is a ShardRouter
// over a consistent-hash ring, and each partition of the ring is one of
// three things here: local (an in-process node, its own client),
// forwarded (a shard process behind httpShard) or not served here
// (absentShard, 421). Standalone is a ring of one with partition 0 local;
// `-shards N` has every partition local; `-role shard` has only its own;
// `-role front` forwards them all. The router never touches a node
// directly: everything goes through the ShardClient seam. Nothing on the
// extract hot path is shared between partitions: the router's only
// cross-partition state is the ring (immutable) and the pooled wire codec
// (per-request scratch). Lifecycle events (promote, rollback, repair,
// learn) route the same way, so a hot-swap bumps epochs only in the
// owning node; /healthz, /metrics, /v1/sites, /v1/jobs and /v1/audit
// merge over the partitions served here, in one shape whatever their
// number.

package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/jobs"
	"autowrap/internal/shard"
	"autowrap/internal/store"
)

// ShardRouter routes every request to the partition the ring assigns its
// site and merges the observation routes over the partitions it serves.
// Build one with NewShardRouter (in-process nodes) or NewForwardRouter
// (shard processes), or take a node's Handler, and mount Handler.
type ShardRouter struct {
	ring *shard.Ring
	// clients[k] is partition k: local (a *Server), forwarded or absent.
	clients []ShardClient
	// served lists the partitions answered here, local or forwarded: the
	// fan-outs run over them.
	served []int
	// peers[k] is the address of a forwarded partition (nil when none is
	// forwarded). A router with peers is a relay: it peeks at a body for
	// its route and leaves the decode to the owner.
	peers []string
	// self is the local partition when the process serves exactly one,
	// -1 otherwise (/healthz's ring.shard).
	self int
	// Front-door decode limits: the first local node's (they are
	// process-uniform), or a forwarding front's own.
	maxBodyBytes   int64
	requestTimeout time.Duration
	started        time.Time
	draining       atomic.Bool
	log            *log.Logger
}

// NewShardRouter builds the router over in-process nodes. build is called
// once per partition, in order, and returns that partition's node
// (NewNode over the partition's store, or a Server wired by hand) — or
// nil for a partition this process does not serve, which is then answered
// 421. At least one partition must be served.
// Persistence is the store backend's job: wire one shared store.Backend
// into every node's ServerConfig (with ServerConfig.Shard set to the
// partition) and each lifecycle event is reported by — and costs — only
// the mutating node.
func NewShardRouter(ring *shard.Ring, build func(shardID int) (*Server, error)) (*ShardRouter, error) {
	if ring == nil {
		return nil, fmt.Errorf("serve: NewShardRouter: nil ring")
	}
	if build == nil {
		return nil, fmt.Errorf("serve: NewShardRouter: nil build")
	}
	f := newRouter(ring)
	var home absentShard
	for k := range f.clients {
		s, err := build(k)
		if err != nil {
			return nil, fmt.Errorf("serve: building shard %d: %w", k, err)
		}
		if s == nil {
			continue
		}
		if home.home == nil {
			home.home, home.local = s, k
		}
		f.clients[k] = s
		f.served = append(f.served, k)
	}
	if home.home == nil {
		return nil, fmt.Errorf("serve: NewShardRouter: build served none of the %d partitions", ring.Shards())
	}
	for k := range f.clients {
		if f.clients[k] == nil {
			home.shard = k
			f.clients[k] = home
		}
	}
	if len(f.served) == 1 {
		f.self = home.local
	}
	f.maxBodyBytes = home.home.cfg.MaxBodyBytes
	f.requestTimeout = home.home.cfg.RequestTimeout
	f.log = home.home.cfg.Log
	return f, nil
}

func newRouter(ring *shard.Ring) *ShardRouter {
	return &ShardRouter{
		ring:    ring,
		clients: make([]ShardClient, ring.Shards()),
		self:    -1,
		started: time.Now(),
	}
}

// ForwardOptions tune a forwarding front end (NewForwardRouter); the
// zero value selects the single-server defaults.
type ForwardOptions struct {
	// RequestTimeout bounds each forwarded call (default 30s); a
	// request's timeout_ms may shorten it, never extend it.
	RequestTimeout time.Duration
	// SkipHandshake disables the boot-time ring-agreement check against
	// reachable peers. Per-request agreement (RingHashHeader) is always
	// enforced by the shards themselves.
	SkipHandshake bool
	// Log receives forwarding warnings (default log.Default()).
	Log *log.Logger
}

// NewForwardRouter builds the multi-process fleet front: partition k of
// ring is the wrapserved process at peers[k] (host:port), reached over
// httpShard clients. On boot the router performs the ring-agreement
// handshake with every reachable peer — fingerprint, shard count and
// partition index must all match, or construction fails naming the peer;
// an unreachable peer is only logged (it may still be booting, and the
// fleet's contract under a missing shard is partial availability, not
// refusal to start). Every forwarded request is then pinned to the ring
// via RingHashHeader, which the shards enforce.
func NewForwardRouter(ring *shard.Ring, peers []string, opt ForwardOptions) (*ShardRouter, error) {
	if ring == nil {
		return nil, fmt.Errorf("serve: NewForwardRouter: nil ring")
	}
	if len(peers) != ring.Shards() {
		return nil, fmt.Errorf("serve: NewForwardRouter: ring has %d shards but %d peers given",
			ring.Shards(), len(peers))
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 30 * time.Second
	}
	if opt.Log == nil {
		opt.Log = log.Default()
	}
	f := newRouter(ring)
	f.peers = append([]string(nil), peers...)
	f.maxBodyBytes = defaultMaxBodyBytes // capped at the front door, before any byte is forwarded
	f.requestTimeout = opt.RequestTimeout
	f.log = opt.Log
	for k, addr := range peers {
		f.clients[k] = newHTTPShard(k, addr, ring.Fingerprint(), opt.RequestTimeout, opt.Log)
		f.served = append(f.served, k)
	}
	if !opt.SkipHandshake {
		if err := f.handshake(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// handshake verifies ring agreement with every reachable peer: the
// peer's /healthz must report a RingInfo whose hash matches this ring
// and whose partition index matches the peer's slot. A reachable peer
// that disagrees — wrong shard count, wrong vnodes, booted for the wrong
// partition, or not serving exactly one partition in process — fails the
// front's boot; an unreachable peer is logged and tolerated (partial
// availability).
func (f *ShardRouter) handshake() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for k, c := range f.clients {
		h, err := c.healthz(ctx)
		if err != nil {
			f.log.Printf("serve: fleet handshake: shard %d (%s) unreachable, continuing degraded: %v",
				k, f.peers[k], err)
			continue
		}
		if h.Ring == nil {
			return fmt.Errorf("serve: fleet handshake: %w: peer %d (%s) reports no ring",
				ErrRingMismatch, k, f.peers[k])
		}
		if h.Ring.Hash != f.ring.Fingerprint() {
			return fmt.Errorf("serve: fleet handshake: %w: peer %d (%s) built ring %s (%d shards, %d vnodes), front built %s (%d shards, %d vnodes)",
				ErrRingMismatch, k, f.peers[k], h.Ring.Hash, h.Ring.Shards, h.Ring.VNodes,
				f.ring.Fingerprint(), f.ring.Shards(), f.ring.VNodes())
		}
		if h.Ring.Shard != k {
			return fmt.Errorf("serve: fleet handshake: %w: peer at %s serves partition %d but is wired as shard %d",
				ErrRingMismatch, f.peers[k], h.Ring.Shard, k)
		}
	}
	return nil
}

// Shard returns the in-process node of partition k (nil for a forwarded
// or absent partition; panics on an out-of-range ID, like any slice index).
func (f *ShardRouter) Shard(k int) *Server {
	s, _ := f.clients[k].(*Server)
	return s
}

// SetDraining flips readiness on the router and every in-process node at
// once: /healthz answers 503 while every node keeps admitting — the first
// step of the drain ordering (steer traffic away, drop nothing). Remote
// shards' readiness belongs to their own processes; the front steers
// traffic away by flipping itself.
func (f *ShardRouter) SetDraining(v bool) {
	f.draining.Store(v)
	for _, k := range f.served {
		f.clients[k].SetDraining(v)
	}
}

// Drain finishes the process's shutdown after the HTTP listener has
// stopped accepting: every served partition's job plane is quiesced
// concurrently — queued jobs run to completion, nothing accepted is
// dropped — falling back to cancellation only when ctx expires. For a
// forwarded partition this is POST /v1/drain to its peer, which also
// flips the peer's readiness. The ordering contract is SetDraining(true)
// → HTTPServer.Shutdown → Drain: readiness flips first, in-flight
// requests finish second, job planes close last, shards after the front.
func (f *ShardRouter) Drain(ctx context.Context) error {
	_, errs := gather(f, ctx, func(c ShardClient, ctx context.Context) (struct{}, error) {
		return struct{}{}, c.Drain(ctx)
	})
	return errors.Join(errs...)
}

// handleDrain serves POST /v1/drain: a front's request that this process
// run its job planes dry, the second half of the ordered fleet drain. The
// process flips its readiness and quiesces its jobs but keeps its
// listener up — in-flight and stray direct requests still complete;
// stopping the process belongs to whoever started it.
func (f *ShardRouter) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req DrainRequest
	if r.ContentLength != 0 && !readJSONLimited(w, r, &req, f.maxBodyBytes) {
		return
	}
	f.SetDraining(true)
	// The nodes' job deadline: 10x the request timeout.
	ctx, cancel := context.WithTimeout(r.Context(), clampTimeout(10*f.requestTimeout, req.TimeoutMS))
	defer cancel()
	resp := DrainResponse{Status: "draining", JobsQuiesced: true}
	if err := f.Drain(ctx); err != nil {
		resp.JobsQuiesced = false
		resp.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- hot path ---

// handleExtract reads the body into the pooled scratch, finds the site in
// it and hands the scratch to the owning partition's client: one ring
// lookup, and one parse wherever the node is. In front of in-process
// nodes the router decodes here, in place, and the node serves from the
// decoded scratch; in front of peers it only peeks (see decodeRouted) and
// the shard's process decodes the client's own bytes.
func (f *ShardRouter) handleExtract(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	if !readBodyInto(w, r, sc, f.maxBodyBytes) {
		return
	}
	if !f.decodeRouted(w, sc.body, &sc.site, &sc.timeoutMS, func() error { return decodeExtractRequest(sc) }) {
		return
	}
	// An empty site falls through to the owner's own 400: a node's, or
	// the peer's (the ring routes it to shard Owner("")).
	f.owner(sc.site).extract(w, r, sc)
}

// decodeRouted learns from an extract, learn or repair body what the owning
// partition's client needs. In front of remote peers that is the route
// alone: peekRoute fills *site and *timeoutMS and leaves body as the client
// sent it, for the peer to decode. In front of in-process nodes — and to
// word the 400 of a body the peek refused, which no decoder accepts —
// decode runs the route's own decoder over body. The error response is
// already written when it returns false.
func (f *ShardRouter) decodeRouted(w http.ResponseWriter, body []byte, site *string, timeoutMS *int, decode func() error) bool {
	var err error
	if f.peers != nil {
		if *site, *timeoutMS, err = peekRoute(body); err == nil {
			return true
		}
	}
	if derr := decode(); derr != nil {
		err = derr
	}
	if err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// --- health + metrics ---

// HealthzResponse is the GET /healthz body, the same on every role.
type HealthzResponse struct {
	Status string `json:"status"` // "ok" | "draining"
	// Shards is the ring size.
	Shards int `json:"shards"`
	// Sites sums registered sites across the reachable partitions served
	// here.
	Sites     int   `json:"sites"`
	UptimeSec int64 `json:"uptime_sec"`
	// Ring is this process's half of the ring-agreement handshake.
	Ring *RingInfo `json:"ring"`
	// Peers is the per-process availability breakdown (forwarding fronts
	// only).
	Peers []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is one shard process's row in a front's /healthz peers list:
// reachable peers report their site count, a dead peer carries the named
// per-shard error — the fleet degrades to partial availability, never to
// a global failure.
type PeerStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Sites int    `json:"sites,omitempty"`
	Error string `json:"error,omitempty"`
}

// handleHealthz answers 503 while the router, or any in-process node of
// it, is draining; a draining peer is its own process's business.
func (f *ShardRouter) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{
		Status:    "ok",
		Shards:    f.ring.Shards(),
		UptimeSec: int64(time.Since(f.started).Seconds()),
		Ring: &RingInfo{
			Hash:   f.ring.Fingerprint(),
			Shards: f.ring.Shards(),
			VNodes: f.ring.VNodes(),
			Shard:  f.self,
		},
	}
	views, errs := gather(f, r.Context(), ShardClient.healthz)
	draining := f.draining.Load()
	for _, k := range f.served {
		resp.Sites += views[k].Sites
		if f.peers == nil {
			draining = draining || views[k].Status == "draining"
			continue
		}
		p := PeerStatus{Shard: k, Addr: f.peers[k], OK: errs[k] == nil, Sites: views[k].Sites}
		if errs[k] != nil {
			p.Error = f.unavailable(k, errs[k])
		}
		resp.Peers = append(resp.Peers, p)
	}
	code := http.StatusOK
	if draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// ShardStatus is one served partition's row in the /metrics breakdown.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Addr is the shard process's address (forwarded partitions only).
	Addr string `json:"addr,omitempty"`
	// Sites counts the shard's partition.
	Sites int `json:"sites"`
	// Metrics merges the shard's per-site ledgers (bucket-summed latency,
	// summed rates).
	Metrics MetricsSnapshot `json:"metrics"`
	Gate    GateSnapshot    `json:"gate"`
	Jobs    *jobs.Metrics   `json:"jobs,omitempty"`
	// Error names an unreachable shard process; its counters above are
	// zero, not missing data from a reachable peer.
	Error string `json:"error,omitempty"`
}

// MetricsResponse is the GET /metrics body, the same on every role: the
// merge over the partitions served here up front, the per-partition
// breakdown (where hot-shard skew shows), and the per-site list with
// shard ownership stamped on.
type MetricsResponse struct {
	UptimeSec int64 `json:"uptime_sec"`
	// Shards and VNodes are the ring's.
	Shards int `json:"shards"`
	VNodes int `json:"vnodes"`
	// Fleet merges every site ledger of every served partition. Latency
	// quantiles come from the merged histogram population — never from
	// averaging per-shard quantiles, which would answer a different
	// question.
	Fleet MetricsSnapshot `json:"fleet"`
	// Gate sums the nodes' gate counters and capacities.
	Gate GateSnapshot `json:"gate"`
	// Jobs sums the nodes' job-plane ledgers (absent when no node has a
	// job plane).
	Jobs *jobs.Metrics `json:"jobs,omitempty"`
	// Audit sums the lifecycle ledgers' counters, each ledger once:
	// in-process nodes share one, every shard process has its own (absent
	// when auditing is off everywhere).
	Audit *audit.Stats `json:"audit,omitempty"`
	// Accum is Fleet before the quantiles are taken: what a front merges
	// so its own quantiles come from the combined population.
	Accum    WireAccum     `json:"accum"`
	PerShard []ShardStatus `json:"per_shard"`
	Sites    []SiteStatus  `json:"sites"`
}

func (f *ShardRouter) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := MetricsResponse{
		UptimeSec: int64(time.Since(f.started).Seconds()),
		Shards:    f.ring.Shards(),
		VNodes:    f.ring.VNodes(),
		PerShard:  make([]ShardStatus, 0, len(f.served)),
		Sites:     []SiteStatus{},
	}
	reps, errs := gather(f, r.Context(), func(c ShardClient, ctx context.Context) (MetricsResponse, error) {
		return c.metrics(ctx, now)
	})
	var fleet WireAccum
	ledgers := ledgerSet{}
	for _, k := range f.served {
		rep := &reps[k]
		row := ShardStatus{
			Shard:   k,
			Sites:   len(rep.Sites),
			Metrics: rep.Accum.snapshot(),
			Gate:    rep.Gate,
			Jobs:    rep.Jobs,
		}
		if f.peers != nil {
			row.Addr = f.peers[k]
		}
		if errs[k] != nil {
			row.Error = f.unavailable(k, errs[k])
			resp.PerShard = append(resp.PerShard, row)
			continue
		}
		fleet.add(&rep.Accum)
		resp.Sites = append(resp.Sites, stamped(rep.Sites, k)...)
		if rep.Audit != nil && ledgers.first(f.Shard(k)) {
			if resp.Audit == nil {
				resp.Audit = &audit.Stats{}
			}
			addAuditStats(resp.Audit, *rep.Audit)
		}
		if rep.Jobs != nil {
			if resp.Jobs == nil {
				resp.Jobs = &jobs.Metrics{}
			}
			resp.Jobs.Add(*rep.Jobs)
		}
		resp.Gate.InFlight += row.Gate.InFlight
		resp.Gate.Waiting += row.Gate.Waiting
		resp.Gate.Admitted += row.Gate.Admitted
		resp.Gate.Rejected += row.Gate.Rejected
		resp.Gate.TimedOut += row.Gate.TimedOut
		resp.Gate.MaxInFlight += row.Gate.MaxInFlight
		resp.Gate.MaxQueue += row.Gate.MaxQueue
		resp.PerShard = append(resp.PerShard, row)
	}
	resp.Fleet = fleet.snapshot()
	resp.Accum = fleet
	sortSites(resp.Sites)
	writeJSON(w, http.StatusOK, resp)
}

// gather calls read on every served partition concurrently — in-process
// calls are cheap, forwarded ones overlap their network latency — and
// returns the answers and errors indexed by partition, zero for one not
// served here.
func gather[T any](f *ShardRouter, ctx context.Context, read func(ShardClient, context.Context) (T, error)) ([]T, []error) {
	out, errs := make([]T, len(f.clients)), make([]error, len(f.clients))
	var wg sync.WaitGroup
	for _, k := range f.served {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k], errs[k] = read(f.clients[k], ctx)
		}()
	}
	wg.Wait()
	return out, errs
}

// unavailable words the error of a shard process the fleet could not
// reach, for its row in /healthz or /metrics.
func (f *ShardRouter) unavailable(k int, err error) string {
	return fmt.Sprintf("%v: shard %d (%s): %v", ErrShardUnavailable, k, f.peers[k], err)
}

// answered lists the served partitions whose answer came back, logging
// each that did not: an observation route (what) merges the partitions it
// can reach.
func (f *ShardRouter) answered(what string, errs []error) []int {
	ks := make([]int, 0, len(f.served))
	for _, k := range f.served {
		if errs[k] != nil {
			f.log.Printf("serve: fleet %s: shard %d (%s): %v", what, k, f.peers[k], errs[k])
			continue
		}
		ks = append(ks, k)
	}
	return ks
}

// ledgerSet tells the first partition to report a ledger from the ones
// sharing it: in-process nodes are built over one ledger, which must count
// once. A forwarded partition's ledger is its process's own.
type ledgerSet map[*audit.Ledger]bool

func (seen ledgerSet) first(local *Server) bool {
	if local == nil || local.Audit() == nil {
		return true
	}
	if seen[local.Audit()] {
		return false
	}
	seen[local.Audit()] = true
	return true
}

// addAuditStats folds one ledger's counters into a sum: every ledger
// keeps its own chain, so counts add and LastSeq is the max.
func addAuditStats(sum *audit.Stats, s audit.Stats) {
	sum.Records += s.Records
	sum.Events += s.Events
	sum.Checkpoints += s.Checkpoints
	sum.LastSeq = max(sum.LastSeq, s.LastSeq)
}

// handleAudit serves the lifecycle ledgers of the partitions served here.
// One ledger — a standalone node's, an in-process fleet's shared one, a
// shard process's own — answers as itself. Several, one per shard process
// behind a front, are merged: their recent records by time (the merged
// list is an observability view — each shard's chain stays independently
// verifiable with `wrapserved -audit-verify`, a merged list of two chains
// is not one chain) and their counters summed, the newest n records kept.
func (f *ShardRouter) handleAudit(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	views, errs := gather(f, r.Context(), func(c ShardClient, ctx context.Context) (AuditResponse, error) {
		return c.auditView(ctx, n)
	})
	var chains []AuditResponse
	ledgers := ledgerSet{}
	for _, k := range f.answered("audit", errs) {
		if views[k].Enabled && ledgers.first(f.Shard(k)) {
			chains = append(chains, views[k])
		}
	}
	if len(chains) == 1 {
		writeJSON(w, http.StatusOK, chains[0])
		return
	}
	merged := AuditResponse{Enabled: len(chains) > 0, Records: []audit.Record{}}
	for _, c := range chains {
		merged.Records = append(merged.Records, c.Records...)
		addAuditStats(&merged.Stats, c.Stats)
	}
	sort.SliceStable(merged.Records, func(i, j int) bool {
		if merged.Records[i].TimeMS != merged.Records[j].TimeMS {
			return merged.Records[i].TimeMS < merged.Records[j].TimeMS
		}
		if merged.Records[i].Shard != merged.Records[j].Shard {
			return merged.Records[i].Shard < merged.Records[j].Shard
		}
		return merged.Records[i].Seq < merged.Records[j].Seq
	})
	merged.Records = merged.Records[max(0, len(merged.Records)-n):]
	writeJSON(w, http.StatusOK, merged)
}

// stamped marks each site row with the partition that serves it.
func stamped(sites []SiteStatus, k int) []SiteStatus {
	for i := range sites {
		sites[i].Shard = k
	}
	return sites
}

func sortSites(sites []SiteStatus) {
	sort.Slice(sites, func(i, j int) bool { return sites[i].Site < sites[j].Site })
}

// handleSites concatenates every served partition's site list, stamps
// shard ownership, and re-sorts by site name so the view reads like one
// registry. Unreachable shards contribute nothing (partial view, logged).
func (f *ShardRouter) handleSites(w http.ResponseWriter, r *http.Request) {
	views, errs := gather(f, r.Context(), func(c ShardClient, ctx context.Context) (MetricsResponse, error) {
		return c.metrics(ctx, time.Now())
	})
	out := []SiteStatus{}
	for _, k := range f.answered("sites", errs) {
		out = append(out, stamped(views[k].Sites, k)...)
	}
	sortSites(out)
	writeJSON(w, http.StatusOK, out)
}

// --- lifecycle routing ---

// handleLifecycle decodes a promote/rollback at the front door and
// applies it on the owning partition: the hot-swap (store mutation, epoch
// bump, runtime rebuild) happens only where the site lives.
func (f *ShardRouter) handleLifecycle(w http.ResponseWriter, r *http.Request, op store.Op) {
	if !requirePost(w, r) {
		return
	}
	var req AdminRequest
	if !readJSONLimited(w, r, &req, f.maxBodyBytes) {
		return
	}
	f.owner(req.Site).lifecycle(w, r, op, req)
}

// handleMaintenance routes a learn (learn set) or a drift repair to the
// owning partition's job plane: the re-learn occupies that node's workers
// and hot-swaps that node's binding, leaving every other partition
// untouched, and a new site is learned where extract requests for it will
// land. Poll GET /v1/jobs/{id} for the outcome. The body is decoded as far
// as the owner's client needs it (decodeRouted): all of it for an
// in-process node, Site and TimeoutMS for a peer, which gets the body. The
// pages an in-process node decodes are views of the body, and its job
// outlives the request, so the body leaves the scratch, which goes back to
// its pool without it: a repair-sized buffer is the job's to drop, not the
// pool's to keep.
func (f *ShardRouter) handleMaintenance(w http.ResponseWriter, r *http.Request, learn bool) {
	if !requirePost(w, r) {
		return
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	ok := readBodyInto(w, r, sc, f.maxBodyBytes)
	body := sc.body
	sc.body = nil
	var req LearnRequest
	if ok && f.decodeRouted(w, body, &req.Site, &req.TimeoutMS, func() error {
		return decodeMaintenanceRequest(body, &req, learn)
	}) {
		f.owner(req.Site).maintain(w, r, req, body, learn)
	}
}

// owner resolves a site to its partition's client. The empty site maps to
// some partition, whose node answers the uniform "site is required" 400.
func (f *ShardRouter) owner(site string) ShardClient {
	return f.clients[f.ring.Owner(site)]
}

// --- jobs ---

// handleJobs merges every served partition's retained jobs into one list,
// ordered by submission time (IDs tie-break: they are unique fleet-wide
// thanks to per-shard prefixes). Unreachable shards contribute nothing.
func (f *ShardRouter) handleJobs(w http.ResponseWriter, r *http.Request) {
	out := []jobs.Snapshot{}
	views, errs := gather(f, r.Context(), ShardClient.listJobs)
	for _, k := range f.answered("jobs", errs) {
		out = append(out, views[k]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	writeJSON(w, http.StatusOK, out)
}

// routeJob resolves the parameterized jobs routes. Job IDs carry their
// partition's prefix ("s3-job-000042"), so the owner is parsed straight
// out of the ID; IDs without a parseable prefix fall back to asking every
// served partition, and the one that knows it answers.
func (f *ShardRouter) routeJob(w http.ResponseWriter, r *http.Request) {
	id, cancel, ok := parseJobPath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	method := http.MethodGet
	if cancel {
		method = http.MethodPost
	}
	if requireMethod(w, r, method) && !f.dispatchJob(w, r, id, cancel) {
		writeError(w, http.StatusNotFound, "%v: %q", jobs.ErrNotFound, id)
	}
}

// dispatchJob routes a job-by-ID call: straight to the partition named by
// the ID's "s<k>-" prefix when it parses, otherwise a scan over every
// served partition. Reports whether some partition handled it.
func (f *ShardRouter) dispatchJob(w http.ResponseWriter, r *http.Request, id string, cancel bool) bool {
	if k, ok := shardOfJobID(id); ok && k < len(f.clients) {
		return f.clients[k].job(w, r, id, cancel)
	}
	for _, k := range f.served {
		if f.clients[k].job(w, r, id, cancel) {
			return true
		}
	}
	return false
}

// shardOfJobID parses the job-ID prefix "s<k>-..." (the IDPrefix NewNode
// gives each node's manager).
func shardOfJobID(id string) (int, bool) {
	if len(id) < 3 || id[0] != 's' {
		return 0, false
	}
	i := strings.IndexByte(id, '-')
	if i < 2 {
		return 0, false
	}
	k, err := strconv.Atoi(id[1:i])
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}
