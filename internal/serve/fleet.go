// The sharded serving plane's front end. A ShardRouter owns N shard
// clients — each the transport handle of one shard with its own
// partition of the store, dispatcher, admission gate, drift monitor and
// job plane — and routes every request to the shard the consistent-hash
// ring assigns the request's site. The router never touches a shard
// directly: everything goes through the ShardClient seam, so the same
// routing logic fronts an in-process fleet (localShard, the `-shards N`
// daemon) and a multi-process one (httpShard, `-role front -peers ...`
// forwarding to independently booted shard processes). Nothing on the
// extract hot path is shared between shards: the router's only
// cross-shard state is the ring (immutable) and the pooled wire codec
// (per-request scratch). Lifecycle events (promote, rollback, repair,
// learn) route the same way, so a hot-swap bumps epochs only in the
// owning shard; /metrics and /v1/sites are the aggregation points that
// make the fleet look like one server to clients.

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

// ShardRouter fronts a fleet behind the single-server HTTP surface:
// same routes, same wire shapes (plus fleet-level fields on /healthz and
// /metrics). Build one with NewShardRouter (in-process shards) or
// NewForwardRouter (remote shard processes) and mount Handler, exactly
// like a Server.
type ShardRouter struct {
	ring    *shard.Ring
	clients []ShardClient
	// shards holds the in-process Servers behind localShard clients; a
	// forwarding router has none (Shard returns nil).
	shards []*Server
	// peers are the remote shard addresses, index-aligned with clients
	// (empty for an in-process fleet). hasRemote makes the front a relay:
	// it peeks at a body for its route and leaves the decode to the owner.
	peers     []string
	hasRemote bool
	// Front-door decode limits; an in-process fleet borrows shard 0's
	// (they are fleet-uniform), a forwarding front brings its own.
	maxBodyBytes   int64
	requestTimeout time.Duration
	started        time.Time
	draining       atomic.Bool
	log            *log.Logger
}

// NewShardRouter builds an in-process fleet. build is called once per
// shard ID, in order, and returns that shard's node (NewNode over the
// shard's store partition, or a Server wired by hand).
// Persistence is the store backend's job: wire one shared store.Backend
// into every shard's ServerConfig (with ServerConfig.Shard set to the
// shard's id) and each lifecycle event is reported by — and costs —
// only the mutating shard.
func NewShardRouter(ring *shard.Ring, build func(shardID int) (*Server, error)) (*ShardRouter, error) {
	if ring == nil {
		return nil, fmt.Errorf("serve: NewShardRouter: nil ring")
	}
	if build == nil {
		return nil, fmt.Errorf("serve: NewShardRouter: nil build")
	}
	f := &ShardRouter{
		ring:    ring,
		clients: make([]ShardClient, ring.Shards()),
		shards:  make([]*Server, ring.Shards()),
		started: time.Now(),
		log:     log.Default(),
	}
	for k := range f.shards {
		s, err := build(k)
		if err != nil {
			return nil, fmt.Errorf("serve: building shard %d: %w", k, err)
		}
		if s == nil {
			return nil, fmt.Errorf("serve: building shard %d: build returned nil", k)
		}
		f.shards[k] = s
		f.clients[k] = localShard{s}
	}
	f.maxBodyBytes = f.shards[0].cfg.MaxBodyBytes
	f.requestTimeout = f.shards[0].cfg.RequestTimeout
	return f, nil
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

// NewForwardRouter builds the multi-process fleet front: shard k of ring
// is the wrapserved process at peers[k] (host:port), reached over
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
	f := &ShardRouter{
		ring:           ring,
		clients:        make([]ShardClient, len(peers)),
		shards:         make([]*Server, len(peers)),
		peers:          append([]string(nil), peers...),
		hasRemote:      true,
		maxBodyBytes:   defaultMaxBodyBytes, // capped at the front door, before any byte is forwarded
		requestTimeout: opt.RequestTimeout,
		started:        time.Now(),
		log:            opt.Log,
	}
	for k, addr := range peers {
		f.clients[k] = newHTTPShard(k, addr, ring.Fingerprint(), opt.RequestTimeout, opt.Log)
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
// partition, or not in shard role at all — fails the front's boot; an
// unreachable peer is logged and tolerated (partial availability).
func (f *ShardRouter) handshake() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for k, c := range f.clients {
		h, err := c.Healthz(ctx)
		if err != nil {
			f.log.Printf("serve: fleet handshake: shard %d (%s) unreachable, continuing degraded: %v",
				k, f.peers[k], err)
			continue
		}
		if h.Ring == nil {
			return fmt.Errorf("serve: fleet handshake: %w: peer %d (%s) is not a shard-role server (no ring info)",
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

// Ring returns the fleet's routing ring.
func (f *ShardRouter) Ring() *shard.Ring { return f.ring }

// Shard returns one in-process shard's Server (nil on a forwarding
// router; panics on an out-of-range ID, like any slice index).
func (f *ShardRouter) Shard(k int) *Server { return f.shards[k] }

// Peers returns the remote shard addresses (nil for an in-process fleet).
func (f *ShardRouter) Peers() []string { return f.peers }

// SetDraining flips readiness on the router and every in-process shard
// at once: /healthz answers 503 fleet-wide while every shard keeps
// admitting — the first step of the drain ordering (steer traffic away,
// drop nothing). Remote shards' readiness belongs to their own
// processes; the front steers traffic away by flipping itself.
func (f *ShardRouter) SetDraining(v bool) {
	f.draining.Store(v)
	for _, c := range f.clients {
		c.SetDraining(v)
	}
}

// Drain finishes the fleet's shutdown after the HTTP listener has
// stopped accepting: every shard's job plane is quiesced concurrently —
// queued jobs run to completion, nothing accepted is dropped — falling
// back to cancellation only when ctx expires. Over the forwarding
// transport this is POST /v1/drain to every peer, which also flips the
// peer's readiness. The ordering contract is SetDraining(true) →
// HTTPServer.Shutdown → Drain: readiness flips first, in-flight
// requests finish second, job planes close last, shards after the front.
func (f *ShardRouter) Drain(ctx context.Context) error {
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for k, c := range f.clients {
		wg.Add(1)
		go func(k int, c ShardClient) {
			defer wg.Done()
			errs[k] = c.Drain(ctx)
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Handler returns the fleet's route table — the same routes as a
// single Server's Handler, served fleet-wide.
func (f *ShardRouter) Handler() http.Handler { return http.HandlerFunc(f.route) }

func (f *ShardRouter) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/extract":
		f.handleExtract(w, r)
	case "/healthz":
		f.handleHealthz(w, r)
	case "/metrics":
		f.handleMetrics(w, r)
	case "/v1/sites":
		f.handleSites(w, r)
	case "/v1/promote":
		f.handleLifecycle(w, r, store.OpPromote)
	case "/v1/rollback":
		f.handleLifecycle(w, r, store.OpRollback)
	case "/v1/repair":
		f.handleRepair(w, r)
	case "/v1/learn":
		f.handleLearn(w, r)
	case "/v1/audit":
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		f.handleAudit(w, r)
	case "/v1/jobs":
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		f.handleJobs(w, r)
	default:
		f.routeJob(w, r)
	}
}

// --- hot path ---

// handleExtract reads the body into the pooled scratch, finds the site in
// it and hands the scratch to the owning shard's client: one ring lookup,
// and one parse wherever the shard is. An in-process fleet decodes here —
// same in-place parse as a single server, zero allocations on top of it —
// and the shard serves from the decoded scratch; a forwarding front only
// peeks (see decodeRouted) and the shard's process decodes the client's
// own bytes.
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
	// An empty site falls through to finishExtract's own 400 (the local
	// transport) or the peer's (the forwarding one routes it to shard
	// Owner("") and the peer answers the same 400).
	f.owner(sc.site).Extract(w, r, sc)
}

// decodeRouted learns from an extract, learn or repair body what the owning
// shard's client needs. In front of remote peers that is the route alone:
// peekRoute fills *site and *timeoutMS and leaves body as the client sent
// it, for the peer to decode. In front of in-process shards — and to word
// the 400 of a body the peek refused, which no decoder accepts — decode
// runs the route's own decoder over body. The error response is already
// written when it returns false.
func (f *ShardRouter) decodeRouted(w http.ResponseWriter, body []byte, site *string, timeoutMS *int, decode func() error) bool {
	var err error
	if f.hasRemote {
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

// PeerStatus is one shard process's row in the fleet /healthz peers
// list (forwarding fronts only): reachable peers report their site
// count, a dead peer carries the named per-shard error — the fleet
// degrades to partial availability, never to a global failure.
type PeerStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Sites int    `json:"sites,omitempty"`
	Error string `json:"error,omitempty"`
}

// FleetHealthzResponse is GET /healthz on a fleet.
type FleetHealthzResponse struct {
	Status string `json:"status"` // "ok" | "draining"
	Shards int    `json:"shards"`
	// Sites sums registered sites across all reachable shard partitions.
	Sites     int   `json:"sites"`
	UptimeSec int64 `json:"uptime_sec"`
	// Ring is the fleet's topology fingerprint — what every forwarded
	// request is pinned to (forwarding fronts only).
	Ring *RingInfo `json:"ring,omitempty"`
	// Peers is the per-process availability breakdown (forwarding fronts
	// only).
	Peers []PeerStatus `json:"peers,omitempty"`
}

func (f *ShardRouter) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := FleetHealthzResponse{
		Status:    "ok",
		Shards:    len(f.clients),
		UptimeSec: int64(time.Since(f.started).Seconds()),
	}
	type peerView struct {
		h   HealthzResponse
		err error
	}
	views := make([]peerView, len(f.clients))
	f.fanOut(r.Context(), func(ctx context.Context, k int, c ShardClient) {
		views[k].h, views[k].err = c.Healthz(ctx)
	})
	for k := range views {
		resp.Sites += views[k].h.Sites
	}
	if f.hasRemote {
		resp.Ring = &RingInfo{
			Hash:   f.ring.Fingerprint(),
			Shards: f.ring.Shards(),
			VNodes: f.ring.VNodes(),
			Shard:  -1, // the front owns the ring, no partition
		}
		resp.Peers = make([]PeerStatus, len(f.clients))
		for k := range views {
			p := PeerStatus{Shard: k, Addr: f.peers[k], OK: views[k].err == nil, Sites: views[k].h.Sites}
			if views[k].err != nil {
				p.Error = fmt.Sprintf("%v: shard %d (%s): %v", ErrShardUnavailable, k, f.peers[k], views[k].err)
			}
			resp.Peers[k] = p
		}
	}
	code := http.StatusOK
	if f.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// ShardStatus is one shard's row in the fleet /metrics breakdown.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Addr is the shard process's address (forwarding fronts only).
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

// FleetMetricsResponse is GET /metrics on a fleet: the fleet-wide merge
// up front, the per-shard breakdown (where hot-shard skew shows), and
// the familiar per-site list with shard ownership stamped on.
type FleetMetricsResponse struct {
	UptimeSec int64 `json:"uptime_sec"`
	Shards    int   `json:"shards"`
	VNodes    int   `json:"vnodes"`
	// Fleet merges every site ledger across every shard. Latency
	// quantiles come from the merged histogram population — never from
	// averaging per-shard quantiles, which would answer a different
	// question.
	Fleet MetricsSnapshot `json:"fleet"`
	// Gate sums the shard gates' counters and capacities.
	Gate GateSnapshot `json:"gate"`
	// Audit is the lifecycle ledger's counters: the shared ledger's for
	// an in-process fleet, the per-shard ledgers' sum for a multi-process
	// one (absent when auditing is off everywhere).
	Audit    *audit.Stats  `json:"audit,omitempty"`
	PerShard []ShardStatus `json:"per_shard"`
	Sites    []SiteStatus  `json:"sites"`
}

func (f *ShardRouter) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := FleetMetricsResponse{
		UptimeSec: int64(time.Since(f.started).Seconds()),
		Shards:    len(f.clients),
		VNodes:    f.ring.VNodes(),
		PerShard:  make([]ShardStatus, len(f.clients)),
	}
	type shardView struct {
		rep ShardReport
		err error
	}
	views := make([]shardView, len(f.clients))
	f.fanOut(r.Context(), func(ctx context.Context, k int, c ShardClient) {
		views[k].rep, views[k].err = c.Metrics(ctx, now)
	})
	var fleet metricsAccum
	var sites []SiteStatus
	var auditSum audit.Stats
	haveAudit := false
	for k := range views {
		rep := &views[k].rep
		row := ShardStatus{
			Shard:   k,
			Sites:   len(rep.Sites),
			Metrics: rep.accum.snapshot(),
			Gate:    rep.Gate,
			Jobs:    rep.Jobs,
		}
		if f.hasRemote {
			row.Addr = f.peers[k]
		}
		if err := views[k].err; err != nil {
			row.Error = fmt.Sprintf("%v: shard %d (%s): %v", ErrShardUnavailable, k, f.peers[k], err)
			resp.PerShard[k] = row
			continue
		}
		fleet.add(&rep.accum)
		for i := range rep.Sites {
			rep.Sites[i].Shard = k
		}
		sites = append(sites, rep.Sites...)
		if rep.AuditStats != nil {
			haveAudit = true
			addAuditStats(&auditSum, *rep.AuditStats)
		}
		resp.Gate.InFlight += row.Gate.InFlight
		resp.Gate.Waiting += row.Gate.Waiting
		resp.Gate.Admitted += row.Gate.Admitted
		resp.Gate.Rejected += row.Gate.Rejected
		resp.Gate.TimedOut += row.Gate.TimedOut
		resp.Gate.MaxInFlight += row.Gate.MaxInFlight
		resp.Gate.MaxQueue += row.Gate.MaxQueue
		resp.PerShard[k] = row
	}
	resp.Fleet = fleet.snapshot()
	sort.Slice(sites, func(i, j int) bool { return sites[i].Site < sites[j].Site })
	resp.Sites = sites
	if !f.hasRemote {
		// In-process shards share one ledger; read it once, not N times.
		if led := f.auditLedger(); led != nil {
			a := led.Stats()
			resp.Audit = &a
		}
	} else if haveAudit {
		resp.Audit = &auditSum
	}
	writeJSON(w, http.StatusOK, resp)
}

// fanOut runs one observation call per shard concurrently — in-process
// calls are cheap, forwarded ones overlap their network latency — and
// waits for all of them.
func (f *ShardRouter) fanOut(ctx context.Context, call func(ctx context.Context, k int, c ShardClient)) {
	var wg sync.WaitGroup
	for k, c := range f.clients {
		wg.Add(1)
		go func(k int, c ShardClient) {
			defer wg.Done()
			call(ctx, k, c)
		}(k, c)
	}
	wg.Wait()
}

// auditLedger returns an in-process fleet's shared ledger: the shards
// are built over one Ledger instance, so the first shard that has one
// speaks for the fleet.
func (f *ShardRouter) auditLedger() *audit.Ledger {
	for _, s := range f.shards {
		if s == nil {
			continue
		}
		if led := s.Audit(); led != nil {
			return led
		}
	}
	return nil
}

// addAuditStats folds one shard ledger's counters into a fleet sum: every
// shard process keeps its own chain, so counts add and LastSeq is the max.
func addAuditStats(sum *audit.Stats, s audit.Stats) {
	sum.Records += s.Records
	sum.Events += s.Events
	sum.Checkpoints += s.Checkpoints
	sum.LastSeq = max(sum.LastSeq, s.LastSeq)
}

// handleAudit serves the fleet's lifecycle ledger. An in-process fleet
// has one shared chain, answered from any shard's view. A multi-process
// fleet has one chain per shard process; the front merges their recent
// records by time (the merged list is an observability view — each
// shard's chain stays independently verifiable with
// `wrapserved -audit-verify`, a merged list of two chains is not one
// chain) and sums the counters.
func (f *ShardRouter) handleAudit(w http.ResponseWriter, r *http.Request) {
	if !f.hasRemote {
		for _, s := range f.shards {
			if s.Audit() != nil {
				s.handleAudit(w, r)
				return
			}
		}
		f.shards[0].handleAudit(w, r)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	merged := AuditResponse{Records: []audit.Record{}}
	views := make([]AuditResponse, len(f.clients))
	errs := make([]error, len(f.clients))
	f.fanOut(r.Context(), func(ctx context.Context, k int, c ShardClient) {
		views[k], errs[k] = c.AuditView(ctx, n)
	})
	for k := range views {
		if errs[k] != nil {
			f.log.Printf("serve: fleet audit: shard %d (%s): %v", k, f.peers[k], errs[k])
			continue
		}
		if !views[k].Enabled {
			continue
		}
		merged.Enabled = true
		merged.Records = append(merged.Records, views[k].Records...)
		addAuditStats(&merged.Stats, views[k].Stats)
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
	writeJSON(w, http.StatusOK, merged)
}

// siteStatuses concatenates every shard's site list, stamps shard
// ownership, and re-sorts by site name so the fleet view reads like one
// registry. Unreachable shards contribute nothing (partial view, logged).
func (f *ShardRouter) siteStatuses(ctx context.Context, now time.Time) []SiteStatus {
	views := make([]ShardReport, len(f.clients))
	errs := make([]error, len(f.clients))
	f.fanOut(ctx, func(ctx context.Context, k int, c ShardClient) {
		views[k], errs[k] = c.Metrics(ctx, now)
	})
	var out []SiteStatus
	for k := range views {
		if errs[k] != nil {
			f.log.Printf("serve: fleet sites: shard %d (%s): %v", k, f.peers[k], errs[k])
			continue
		}
		statuses := views[k].Sites
		for i := range statuses {
			statuses[i].Shard = k
		}
		out = append(out, statuses...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

func (f *ShardRouter) handleSites(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.siteStatuses(r.Context(), time.Now()))
}

// --- lifecycle routing ---

// handleLifecycle decodes a promote/rollback at the front door and
// applies it on the owning shard: the hot-swap (store mutation, epoch
// bump, runtime rebuild) happens only where the site lives.
func (f *ShardRouter) handleLifecycle(w http.ResponseWriter, r *http.Request, op store.Op) {
	if !requirePost(w, r) {
		return
	}
	var req AdminRequest
	if !readJSONLimited(w, r, &req, f.maxBodyBytes) {
		return
	}
	f.owner(req.Site).Lifecycle(w, r, op, req)
}

// handleRepair routes a drift repair to the owning shard's job plane:
// the re-learn occupies that shard's workers and hot-swaps that shard's
// binding, leaving every other shard untouched.
func (f *ShardRouter) handleRepair(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	var req LearnRequest
	if !f.readMaintenance(w, r, sc, &req, false) {
		return
	}
	f.owner(req.Site).Repair(w, r, req.repair(), sc.body)
}

// handleLearn routes a learn to the shard the ring assigns the new site
// — which is exactly where extract requests for it will land once it
// serves.
func (f *ShardRouter) handleLearn(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	var req LearnRequest
	if !f.readMaintenance(w, r, sc, &req, true) {
		return
	}
	f.owner(req.Site).Learn(w, r, req, sc.body)
}

// readMaintenance reads a learn or repair body into sc and decodes it into
// req as far as the owner's client needs it (decodeRouted): all of it for
// an in-process shard, Site and TimeoutMS for a peer, which gets sc.body.
func (f *ShardRouter) readMaintenance(w http.ResponseWriter, r *http.Request, sc *extractScratch, req *LearnRequest, learn bool) bool {
	return readBodyInto(w, r, sc, f.maxBodyBytes) &&
		f.decodeRouted(w, sc.body, &req.Site, &req.TimeoutMS, func() error {
			return decodeMaintenanceRequest(sc.body, req, learn)
		})
}

// owner resolves a site to its shard client. The empty site maps to some
// shard, whose finish handler answers the uniform "site is required" 400.
func (f *ShardRouter) owner(site string) ShardClient {
	return f.clients[f.ring.Owner(site)]
}

// --- jobs ---

// handleJobs merges every shard's retained jobs into one list, ordered
// by submission time (IDs tie-break: they are unique fleet-wide thanks
// to per-shard prefixes). Unreachable shards contribute nothing.
func (f *ShardRouter) handleJobs(w http.ResponseWriter, r *http.Request) {
	out := []jobs.Snapshot{}
	views := make([][]jobs.Snapshot, len(f.clients))
	errs := make([]error, len(f.clients))
	f.fanOut(r.Context(), func(ctx context.Context, k int, c ShardClient) {
		views[k], errs[k] = c.Jobs(ctx)
	})
	for k := range views {
		if errs[k] != nil {
			f.log.Printf("serve: fleet jobs: shard %d (%s): %v", k, f.peers[k], errs[k])
			continue
		}
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

// routeJob resolves the parameterized jobs routes fleet-wide. Fleet job
// IDs carry their shard's prefix ("s3-job-000042"), so the owner is
// parsed straight out of the ID; IDs without a parseable prefix fall
// back to asking every shard, and the one that knows it answers.
func (f *ShardRouter) routeJob(w http.ResponseWriter, r *http.Request) {
	id, cancel, ok := parseJobPath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	method, call := http.MethodGet, func(c ShardClient) bool { return c.JobGet(w, r, id) }
	if cancel {
		method, call = http.MethodPost, func(c ShardClient) bool { return c.JobCancel(w, r, id) }
	}
	if requireMethod(w, r, method) && !f.dispatchJob(id, call) {
		writeError(w, http.StatusNotFound, "%v: %q", jobs.ErrNotFound, id)
	}
}

// dispatchJob routes a job-by-ID call: straight to the shard named by
// the ID's "s<k>-" prefix when it parses, otherwise a scan over every
// shard. Reports whether some shard handled it.
func (f *ShardRouter) dispatchJob(id string, call func(ShardClient) bool) bool {
	if k, ok := shardOfJobID(id); ok && k < len(f.clients) {
		return call(f.clients[k])
	}
	for _, c := range f.clients {
		if call(c) {
			return true
		}
	}
	return false
}

// shardOfJobID parses the fleet job-ID prefix "s<k>-..." (the IDPrefix
// wrapserved gives each shard's manager).
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
