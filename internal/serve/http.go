package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/drift"
	"autowrap/internal/extract"
	"autowrap/internal/jobs"
	"autowrap/internal/shard"
	"autowrap/internal/store"
)

// ServerConfig wires a Server. Dispatcher is required; everything else has
// a usable default or degrades gracefully when absent.
type ServerConfig struct {
	Dispatcher *Dispatcher
	// Gate admission-controls POST /v1/extract; nil builds one with default
	// GateOptions. Admin and health routes are never gated.
	Gate *Gate
	// RequestTimeout is the per-request extraction deadline (default 30s).
	// A request's timeout_ms field may shorten it, never extend it.
	RequestTimeout time.Duration
	// MaxPages caps pages per extract request (default 256); MaxBodyBytes
	// caps the request body (default 32 MiB).
	MaxPages     int
	MaxBodyBytes int64
	// Repairer enables the maintenance plane — POST /v1/learn and
	// POST /v1/repair; nil returns 501 there (the daemon needs an
	// annotator to re-learn, which not every deployment has).
	Repairer *drift.Repairer
	// Jobs executes learn and repair asynchronously; nil builds a default
	// manager (1 worker, queue 16) when Repairer is set. The job pool is
	// isolated from the extract hot path: learning never occupies a Gate
	// slot, extraction never occupies a job worker.
	Jobs *jobs.Manager
	// LearnCorpusRoot, when set, enables LearnRequest.CorpusDir and
	// confines it: a learn job only reads *.html from directories under
	// this root. Empty (the default) rejects corpus_dir submissions —
	// an HTTP endpoint must not get to point the daemon at arbitrary
	// server-side paths.
	LearnCorpusRoot string
	// Backend, when set, receives every lifecycle event (new version,
	// promote, rollback) after it succeeds in memory. NewServer attaches
	// the dispatcher's store to it under Shard, so a fleet's shards share
	// one backend and each reports only its own partition's events —
	// an event on shard k never rewrites shard j's data.
	Backend store.Backend
	// Shard is this server's shard id in a fleet (0 standalone); it tags
	// backend appends and audit records.
	Shard int
	// Ring, when set, puts the server in shard role: it is one
	// independently booted partition (index Shard) of a fleet routed by
	// this ring. A shard-role server (a) refuses requests whose
	// RingHashHeader disagrees with the ring's fingerprint (503,
	// ErrRingMismatch), (b) refuses lifecycle and extract requests for
	// sites the ring assigns elsewhere (421, ErrNotOwner), (c) reports
	// its RingInfo on /healthz and its bucket-level accumulator on
	// /metrics for the front end's merges, and (d) serves POST /v1/drain.
	// Nil (the default) is the standalone server, wire-identical to
	// before the fleet transport existed.
	Ring *shard.Ring
	// Audit, when set, records every lifecycle event (learn, candidate,
	// promote, rollback, drift trip, auto-repair) in the hash-chained
	// ledger. Nil disables auditing; a fleet's shards share one ledger.
	Audit *audit.Ledger
	// Log receives request-path warnings (default: log.Default()).
	Log *log.Logger
}

// defaultMaxBodyBytes is the request-body cap of a server that sets none,
// and of every forwarding front.
const defaultMaxBodyBytes = 32 << 20

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Gate == nil {
		c.Gate = NewGate(GateOptions{})
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxPages <= 0 {
		c.MaxPages = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.Jobs == nil && c.Repairer != nil {
		c.Jobs = jobs.New(jobs.Options{})
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the HTTP extraction service: the dispatcher's hot path behind
// admission control, plus health, metrics and the wrapper-lifecycle admin
// routes. Build one with NewServer, mount Handler on an http.Server, and
// call SetDraining(true) before shutdown so load balancers stop sending.
//
//	POST /v1/extract   extract records from one page or a batch
//	GET  /healthz      liveness + readiness (503 while draining)
//	GET  /metrics      per-site QPS/latency/health + gate + job counters
//	GET  /v1/sites     serving state of every site
//	POST /v1/promote   make a stored version the serving one (hot-swap)
//	POST /v1/rollback  revert to the previously promoted version
//	POST /v1/learn     enqueue a learn job (202 + job id): learn a site
//	                   from posted pages or a server-side corpus dir,
//	                   validate, promote, hot-swap
//	POST /v1/repair    enqueue a drift-repair job (202 + job id):
//	                   re-learn from posted pages, validate, promote on
//	                   a strict held-out win
//	GET  /v1/jobs      every retained job, submission order
//	GET  /v1/jobs/{id} one job's state/progress/result
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
type Server struct {
	cfg ServerConfig
	// jobTimeout is the per-job learn/repair deadline: 10x RequestTimeout,
	// learning being orders of magnitude heavier than extraction. A job's
	// timeout_ms may shorten it, never extend it.
	jobTimeout time.Duration
	started    time.Time
	draining   atomic.Bool
	ownJobs    bool // the manager is the server's to drain on Close, not the caller's
	// drainedJobs makes the job plane's drain one-shot: /v1/drain, the
	// process's own shutdown and Close may all ask, the first does the work.
	drainedJobs atomic.Bool
	// lifecycleMu serializes {in-memory mutation, backend append} pairs
	// so the event order a log backend replays matches the order the
	// registry actually mutated. Lifecycle events are rare (admin calls,
	// repair completions); this never touches the extract hot path.
	lifecycleMu sync.Mutex
	// tripHook installs onTrip on the monitor once; maint is the started
	// auto-repair loop onTrip kicks (nil: trips are logged and audited,
	// nothing is enqueued).
	tripHook sync.Once
	maint    atomic.Pointer[Maintainer]
}

// NewServer builds the HTTP layer over a dispatcher and whatever other
// parts the caller picked by hand; NewNode is the assembly that picks
// them all.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("serve: ServerConfig.Dispatcher is required")
	}
	if cfg.Backend != nil {
		cfg.Backend.Attach(cfg.Shard, cfg.Dispatcher.Store())
	}
	ownJobs := cfg.Jobs == nil && cfg.Repairer != nil
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, jobTimeout: 10 * cfg.RequestTimeout, started: time.Now(), ownJobs: ownJobs}, nil
}

// Close releases what the server owns: it stops a started maintainer and,
// unless Drain already ran, cancels what is left on a job manager the
// server created (withDefaults' or a node's — its workers would otherwise
// outlive the server). A manager the caller passed to NewServer is the
// caller's to drain. Idempotent.
func (s *Server) Close() error {
	s.stopMaintainer()
	if !s.ownJobs || !s.drainedJobs.CompareAndSwap(false, true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.cfg.Jobs.Drain(ctx)
}

// Gate returns the server's admission gate.
func (s *Server) Gate() *Gate { return s.cfg.Gate }

// Dispatcher returns the server's dispatcher.
func (s *Server) Dispatcher() *Dispatcher { return s.cfg.Dispatcher }

// Jobs returns the server's job manager (nil when the maintenance plane
// is disabled). The process owner drains it on shutdown.
func (s *Server) Jobs() *jobs.Manager { return s.cfg.Jobs }

// SetDraining flips readiness: while draining, /healthz answers 503 (so
// traffic steers away) and job submissions are refused, but in-flight and
// newly arriving extractions still complete — the process owner decides
// when to stop accepting connections. Draining also stops a started
// auto-repair maintainer: a node on its way out enqueues nothing new.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
	if v {
		s.stopMaintainer()
	}
}

func (s *Server) stopMaintainer() {
	if m := s.maint.Load(); m != nil {
		m.Stop()
	}
}

// Drain runs the job plane dry exactly once: new submissions are already
// rejected (the caller flipped draining), accepted jobs — queued as well
// as running — execute to completion, and only when ctx expires first is
// the remainder canceled; then the workers exit. It is the last step of
// every role's shutdown (SetDraining(true) → http.Server.Shutdown →
// Drain) and what POST /v1/drain does for a front end; whoever asks first
// does the work, so an HTTP-initiated fleet drain followed by SIGTERM
// cannot double-drain the manager. Nil manager or a repeat call is a no-op.
func (s *Server) Drain(ctx context.Context) error {
	m := s.cfg.Jobs
	if m == nil || !s.drainedJobs.CompareAndSwap(false, true) {
		return nil
	}
	return m.Quiesce(ctx)
}

// onTrip is the node's trip hook, on the monitor from hookTrips until the
// process ends: a drift trip is logged with its shard and audited whether
// or not anything can act on it — also while draining — and kicks
// auto-repair only while a maintainer is started. It runs on the serving
// worker that observed the tripping page.
func (s *Server) onTrip(site string, st drift.Stats) {
	s.cfg.Log.Printf("DRIFT TRIPPED (shard %d): %s", s.cfg.Shard, st)
	s.audit(audit.EventDriftTrip, site, 0, st.String())
	if m := s.maint.Load(); m != nil {
		m.Kick(site)
	}
}

// hookTrips installs onTrip on the dispatcher's monitor, once. NewNode
// calls it as soon as the server exists; Maintainer.Start does for a
// hand-assembled server, whose monitor nobody hooked.
func (s *Server) hookTrips() {
	s.tripHook.Do(func() {
		if mon := s.cfg.Dispatcher.Monitor(); mon != nil {
			mon.SetOnTrip(s.onTrip)
		}
	})
}

// handleDrain serves POST /v1/drain on shard-role servers: the front
// end's half of the ordered fleet drain (front stops admitting first,
// then asks each shard to run its job plane dry). The shard flips its
// readiness and quiesces jobs but keeps its listener up — in-flight and
// stray direct requests still complete; stopping the process belongs to
// whoever started it. Standalone servers don't expose the route (404).
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ring == nil {
		http.NotFound(w, r)
		return
	}
	if !requirePost(w, r) {
		return
	}
	var req DrainRequest
	if r.ContentLength != 0 && !s.readJSON(w, r, &req) {
		return
	}
	s.SetDraining(true)
	ctx, cancel := context.WithTimeout(r.Context(), clampTimeout(s.jobTimeout, req.TimeoutMS))
	defer cancel()
	resp := DrainResponse{Status: "draining", JobsQuiesced: true}
	if err := s.Drain(ctx); err != nil {
		resp.JobsQuiesced = false
		resp.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- wire types ---

// PageInput is one page of an extract request.
type PageInput struct {
	ID   string `json:"id,omitempty"`
	HTML string `json:"html"`
}

// ExtractRequest is the POST /v1/extract body. Exactly one of Page and
// Pages must be set; Page is the single-page fast path.
type ExtractRequest struct {
	Site  string      `json:"site"`
	Page  *PageInput  `json:"page,omitempty"`
	Pages []PageInput `json:"pages,omitempty"`
	// TimeoutMS shortens the server's per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// PageOutput is one page's extraction outcome on the wire.
type PageOutput struct {
	ID      string   `json:"id,omitempty"`
	Records []string `json:"records"`
	Error   string   `json:"error,omitempty"`
	// ElapsedUS is the page's extraction latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// ExtractResponse is the POST /v1/extract reply.
type ExtractResponse struct {
	Site    string       `json:"site"`
	Version int          `json:"version"`
	Results []PageOutput `json:"results"`
	// Error carries a request-level failure (e.g. deadline mid-batch) when
	// partial results are still returned.
	Error string `json:"error,omitempty"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a bounded JSON body, rejecting trailing garbage.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return readJSONLimited(w, r, v, s.cfg.MaxBodyBytes)
}

// readJSONLimited is readJSON with an explicit byte cap — the fleet
// router decodes at the front door with its own limit, servers with
// theirs, through the same code.
func readJSONLimited(w http.ResponseWriter, r *http.Request, v any, max int64) bool {
	body := http.MaxBytesReader(w, r.Body, max)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	return true
}

// refuseNotOwned is the shard-role ownership check: a shard booted for
// partition k must never serve — let alone mutate — a site the ring
// assigns elsewhere, whether it got here through a misconfigured front
// or a direct hit. 421 Misdirected Request with the named error; the
// response is already written when it returns true. Standalone servers
// (no Ring) own everything.
func (s *Server) refuseNotOwned(w http.ResponseWriter, site string) bool {
	if s.cfg.Ring == nil || site == "" {
		return false
	}
	if k := s.cfg.Ring.Owner(site); k != s.cfg.Shard {
		writeError(w, http.StatusMisdirectedRequest,
			"%v: site %q belongs to shard %d, this is shard %d", ErrNotOwner, site, k, s.cfg.Shard)
		return true
	}
	return false
}

// checkRingHash enforces per-request ring agreement on a shard-role
// server: a request pinned (via RingHashHeader) to a different ring
// fingerprint is refused with 503 and the named mismatch error before it
// can touch the wrong partition. Requests without the header — direct
// operator calls — pass; ownership is still checked per site.
func (s *Server) checkRingHash(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Ring == nil {
		return true
	}
	h := r.Header.Get(RingHashHeader)
	if h == "" || h == s.cfg.Ring.Fingerprint() {
		return true
	}
	writeError(w, http.StatusServiceUnavailable,
		"%v: request pinned to ring %s, shard %d built ring %s", ErrRingMismatch, h, s.cfg.Shard, s.cfg.Ring.Fingerprint())
	return false
}

// siteStatusCode maps dispatcher site-level errors to HTTP statuses.
func siteStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSite):
		return http.StatusNotFound
	case errors.Is(err, ErrNoActiveVersion):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// --- hot path ---

// handleExtract is the allocation-disciplined serving path: body bytes land
// in a pooled buffer, the request decodes in place (see wire.go), page HTML
// flows straight into the parser via the dispatcher, and the response is
// appended into a pooled buffer and written with an explicit
// Content-Length. The wire shapes are unchanged from the encoding/json
// implementation; only the steady-state allocation profile is different.
//
// The handler is split at the decoded-request boundary: decodeExtract
// fills the scratch, finishExtract serves from it. The fleet's
// ShardRouter decodes once at the front door, reads sc.site to pick the
// owning shard, and calls that shard's finishExtract — same pooled
// buffers, no second parse.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	if !s.decodeExtract(w, r, sc) {
		return
	}
	s.finishExtract(w, r, sc)
}

// decodeExtract reads and parses the request body into the scratch,
// answering the error response itself when it returns false.
func (s *Server) decodeExtract(w http.ResponseWriter, r *http.Request, sc *extractScratch) bool {
	if !s.readBody(w, r, sc) {
		return false
	}
	if err := decodeExtractRequest(sc); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// writeDecodeError answers the 400 of a body the wire decoders refused.
func writeDecodeError(w http.ResponseWriter, err error) {
	if err == errTrailing {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
}

// readMaintenance reads the body of a learn or repair request into a pooled
// scratch and decodes it there, answering the error response itself when it
// returns false. Only the decoded strings outlive the call. max is the byte
// cap — servers and the fleet's front door decode through the same code
// with their own limits.
func readMaintenance(w http.ResponseWriter, r *http.Request, req *LearnRequest, learn bool, max int64) bool {
	sc := acquireScratch()
	defer releaseScratch(sc)
	if !readBodyInto(w, r, sc, max) {
		return false
	}
	if err := decodeMaintenanceRequest(sc.body, req, learn); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// finishExtract validates the decoded request and serves it: admission
// through this server's gate, extraction through this server's
// dispatcher. sc must have been filled by decodeExtract (any server's —
// the limits are fleet-uniform).
func (s *Server) finishExtract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	if sc.site == "" {
		writeError(w, http.StatusBadRequest, "site is required")
		return
	}
	if s.refuseNotOwned(w, sc.site) {
		return
	}
	pages := sc.pages
	if sc.hasSingle {
		if len(pages) > 0 {
			writeError(w, http.StatusBadRequest, "set page or pages, not both")
			return
		}
		pages = append(sc.pages[:0], sc.single)
	}
	if len(pages) == 0 {
		writeError(w, http.StatusBadRequest, "no pages")
		return
	}
	if len(pages) > s.cfg.MaxPages {
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d pages exceeds the per-request cap of %d", len(pages), s.cfg.MaxPages)
		return
	}

	// The per-request deadline starts before admission: a request queued
	// behind busy slots never waits longer for admission than it would for
	// the work itself.
	ctx, cancel := context.WithTimeout(r.Context(),
		clampTimeout(s.cfg.RequestTimeout, sc.timeoutMS))
	defer cancel()

	// Admission: reject with backpressure before any extraction work.
	release, err := s.cfg.Gate.Acquire(ctx)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After",
				strconv.Itoa(int(s.cfg.Gate.RetryAfter()/time.Second)))
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, siteStatusCode(err), "while queued: %v", err)
		return
	}
	defer release()

	if cap(sc.in) < len(pages) {
		sc.in = make([]extract.Page, len(pages))
	} else {
		sc.in = sc.in[:len(pages)]
	}
	for i := range pages {
		id := pages[i].id
		if id == "" {
			id = defaultPageID(i)
		}
		sc.in[i] = extract.Page{ID: id, HTML: pages[i].html}
	}
	ext, err := s.cfg.Dispatcher.Extract(ctx, sc.site, sc.in)
	if ext == nil {
		writeError(w, siteStatusCode(err), "%v", err)
		return
	}
	code := http.StatusOK
	if err != nil {
		// Partial batch (deadline/cancel mid-run): return what completed,
		// flagged at both levels (the response body carries err too).
		code = siteStatusCode(err)
	}
	// The pages are views of sc.body and the Texts may alias them: they are
	// encoded here, before the caller releases the scratch.
	sc.out = appendExtractResponse(sc.out[:0], ext, err)
	writeRawJSON(w, code, sc.out)
}

// --- health + metrics ---

// HealthzResponse is the GET /healthz body.
type HealthzResponse struct {
	Status string `json:"status"` // "ok" | "draining"
	Sites  int    `json:"sites"`
	// UptimeSec is the server's age.
	UptimeSec int64 `json:"uptime_sec"`
	// Ring is the shard-role server's half of the ring-agreement
	// handshake (absent on standalone servers).
	Ring *RingInfo `json:"ring,omitempty"`
}

// healthz is this node's health view: what GET /healthz answers, and what
// an in-process fleet router reads without the HTTP round trip.
func (s *Server) healthz() HealthzResponse {
	resp := HealthzResponse{
		Status:    "ok",
		Sites:     s.cfg.Dispatcher.Store().Len(),
		UptimeSec: int64(time.Since(s.started).Seconds()),
	}
	if ring := s.cfg.Ring; ring != nil {
		resp.Ring = &RingInfo{
			Hash:   ring.Fingerprint(),
			Shards: ring.Shards(),
			VNodes: ring.VNodes(),
			Shard:  s.cfg.Shard,
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := s.healthz()
	code := http.StatusOK
	if resp.Status == "draining" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// MetricsResponse is the GET /metrics body.
type MetricsResponse struct {
	UptimeSec int64        `json:"uptime_sec"`
	Gate      GateSnapshot `json:"gate"`
	// Jobs is the maintenance plane's ledger (absent when disabled).
	Jobs *jobs.Metrics `json:"jobs,omitempty"`
	// Audit is the lifecycle ledger's counters (absent when disabled).
	Audit *audit.Stats `json:"audit,omitempty"`
	// Accum is the shard-role server's bucket-level accumulator — what a
	// forwarding front end merges so fleet latency quantiles come from
	// the combined histogram population (absent on standalone servers).
	Accum *WireAccum   `json:"accum,omitempty"`
	Sites []SiteStatus `json:"sites"`
}

// metrics is this node's /metrics view at now, less the accumulator only a
// shard-role server puts on the wire: what GET /metrics answers, and what
// an in-process fleet router reads without the HTTP round trip.
func (s *Server) metrics(now time.Time) MetricsResponse {
	resp := MetricsResponse{
		UptimeSec: int64(now.Sub(s.started).Seconds()),
		Gate:      s.cfg.Gate.Snapshot(),
		Sites:     s.cfg.Dispatcher.Status(),
	}
	if s.cfg.Jobs != nil {
		m := s.cfg.Jobs.Metrics()
		resp.Jobs = &m
	}
	if s.cfg.Audit != nil {
		a := s.cfg.Audit.Stats()
		resp.Audit = &a
	}
	return resp
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := s.metrics(now)
	if s.cfg.Ring != nil {
		acc := s.cfg.Dispatcher.metricsAccumNow(now)
		resp.Accum = wireAccumFrom(&acc)
	}
	writeJSON(w, http.StatusOK, resp)
}

// AuditResponse is the GET /v1/audit body: the ledger's counters plus
// its newest records, oldest first. ?n= caps the record count (default
// 100).
type AuditResponse struct {
	Enabled bool           `json:"enabled"`
	Path    string         `json:"path,omitempty"`
	Stats   audit.Stats    `json:"stats"`
	Records []audit.Record `json:"records"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	writeJSON(w, http.StatusOK, s.auditResponse(n))
}

// auditResponse builds the ledger view handleAudit serves — shared with
// the fleet transport so a local shard and a forwarded shard report the
// same shape.
func (s *Server) auditResponse(n int) AuditResponse {
	resp := AuditResponse{Records: []audit.Record{}}
	if s.cfg.Audit != nil {
		resp.Enabled = true
		resp.Path = s.cfg.Audit.Path()
		resp.Stats = s.cfg.Audit.Stats()
		if recs := s.cfg.Audit.Recent(n); recs != nil {
			resp.Records = recs
		}
	}
	return resp
}

func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Dispatcher.Status())
}

// --- admin ---

// AdminRequest is the promote/rollback body.
type AdminRequest struct {
	Site    string `json:"site"`
	Version int    `json:"version,omitempty"` // promote only
}

// AdminResponse reports the entry now serving after an admin mutation.
type AdminResponse struct {
	Site           string `json:"site"`
	ServingVersion int    `json:"serving_version"`
	Lang           string `json:"lang"`
	Rule           string `json:"rule"`
}

// persistEntry reports a new stored version to the backend (no-op when
// none is configured).
func (s *Server) persistEntry(e store.Entry, promote bool) error {
	if s.cfg.Backend == nil {
		return nil
	}
	return s.cfg.Backend.AppendEntry(s.cfg.Shard, e, promote)
}

// persistPromotion reports a serving-decision event to the backend.
func (s *Server) persistPromotion(site string, op store.Op, version int) error {
	if s.cfg.Backend == nil {
		return nil
	}
	return s.cfg.Backend.AppendPromotion(s.cfg.Shard, site, op, version)
}

// audit records a lifecycle event in the ledger. Ledger trouble is
// logged, never bounced to the client — the mutation itself is already
// durable through the backend, and the ledger's own chain makes a gap
// visible to Verify-driven monitoring.
func (s *Server) audit(event, site string, version int, detail string) {
	if err := s.cfg.Audit.Append(s.cfg.Shard, event, site, version, detail); err != nil {
		s.cfg.Log.Printf("serve: audit %s %s: %v", event, site, err)
	}
}

// Audit returns the server's audit ledger (nil when auditing is off).
func (s *Server) Audit() *audit.Ledger { return s.cfg.Audit }

func (s *Server) finishAdmin(w http.ResponseWriter, entry store.Entry, err, persistErr error) {
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrUnknownSite) {
			code = http.StatusNotFound
		}
		writeError(w, code, "%v", err)
		return
	}
	if persistErr != nil {
		s.cfg.Log.Printf("serve: persisting store after admin mutation: %v", persistErr)
		writeError(w, http.StatusInternalServerError, "mutation applied but not persisted: %v", persistErr)
		return
	}
	writeJSON(w, http.StatusOK, AdminResponse{
		Site: entry.Site, ServingVersion: entry.Version,
		Lang: entry.Lang, Rule: entry.Rule,
	})
}

// handleLifecycle serves POST /v1/promote and POST /v1/rollback.
func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request, op store.Op) {
	if !requirePost(w, r) {
		return
	}
	var req AdminRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	s.finishLifecycle(w, op, req)
}

// finishLifecycle applies a decoded promote (store.OpPromote) or rollback
// (store.OpRollback) against this server's dispatcher — the fleet router
// decodes once and calls the owning shard's finishLifecycle, so the
// hot-swap (and its epoch bump) happens only in the shard that serves the
// site.
func (s *Server) finishLifecycle(w http.ResponseWriter, op store.Op, req AdminRequest) {
	rollback := op == store.OpRollback
	switch {
	case rollback && req.Site == "":
		writeError(w, http.StatusBadRequest, "site is required")
		return
	case !rollback && (req.Site == "" || req.Version < 1):
		writeError(w, http.StatusBadRequest, "site and version >= 1 are required")
		return
	}
	if s.refuseNotOwned(w, req.Site) {
		return
	}
	apply := func() (store.Entry, error) { return s.cfg.Dispatcher.Promote(req.Site, req.Version) }
	event, detail := audit.EventPromote, "admin promote"
	if rollback {
		apply = func() (store.Entry, error) { return s.cfg.Dispatcher.Rollback(req.Site) }
		event, detail = audit.EventRollback, "admin rollback"
	}
	s.lifecycleMu.Lock()
	entry, err := apply()
	var perr error
	if err == nil {
		perr = s.persistPromotion(req.Site, op, entry.Version)
	}
	s.lifecycleMu.Unlock()
	if err == nil && perr == nil {
		s.audit(event, req.Site, entry.Version, detail)
	}
	s.finishAdmin(w, entry, err, perr)
}

// --- maintenance plane: async learn + repair jobs ---

// RepairRequest is the POST /v1/repair body: the freshest pages of the
// drifted site, raw HTML.
type RepairRequest struct {
	Site  string   `json:"site"`
	Pages []string `json:"pages"`
	// TimeoutMS shortens the job's learn deadline (default 10x the
	// extract request timeout — learning is orders of magnitude heavier).
	// It may shorten the deadline, never extend it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// LearnRequest is the POST /v1/learn body: a new site's corpus, either
// inline pages or a server-side directory of *.html files (exactly one).
type LearnRequest struct {
	Site  string   `json:"site"`
	Pages []string `json:"pages,omitempty"`
	// CorpusDir names a directory under the server's configured
	// LearnCorpusRoot whose *.html files (flat, not recursive) form the
	// corpus; it is read when the job runs, not at submit. Rejected when
	// the server has no corpus root configured.
	CorpusDir string `json:"corpus_dir,omitempty"`
	// TimeoutMS shortens the job's learn deadline, like RepairRequest's.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// repair is the repair request a body decoded without corpus_dir holds.
func (r LearnRequest) repair() RepairRequest {
	return RepairRequest{Site: r.Site, Pages: r.Pages, TimeoutMS: r.TimeoutMS}
}

// RepairResponse is a finished learn/repair job's result payload
// (Snapshot.Result on GET /v1/jobs/{id}).
type RepairResponse struct {
	Site string `json:"site"`
	// Promoted says whether serving flipped to the re-learned candidate.
	Promoted         bool `json:"promoted"`
	CandidateVersion int  `json:"candidate_version"`
	ServingVersion   int  `json:"serving_version"`
	// Candidate/Incumbent summarize the held-out validation.
	CandidatePages     int    `json:"candidate_nonempty_pages"`
	IncumbentPages     int    `json:"incumbent_nonempty_pages"`
	CandidateRecords   int    `json:"candidate_records"`
	IncumbentRecords   int    `json:"incumbent_records"`
	LearnElapsedMS     int64  `json:"learn_elapsed_ms"`
	ValidationVerdict  string `json:"verdict"`
	TrainPagesUsed     int    `json:"train_pages"`
	HoldoutPagesUsed   int    `json:"holdout_pages"`
	MonitorReset       bool   `json:"monitor_reset"`
	PreviousServingVer int    `json:"previous_serving_version,omitempty"`
	// StagesUS says where the job's time went, in microseconds.
	StagesUS StagesUS `json:"stages_us"`
}

// StagesUS is one learn/repair job's wall-clock time by stage: the
// repairer's own (drift.Stages) and Persist, everything after it — the
// serving refresh, the durable store appends and the audit records.
type StagesUS struct {
	Parse     int64 `json:"parse"`
	Annotate  int64 `json:"annotate"`
	Build     int64 `json:"build"`
	Enumerate int64 `json:"enumerate"`
	Rank      int64 `json:"rank"`
	Validate  int64 `json:"validate"`
	Promote   int64 `json:"promote"`
	Persist   int64 `json:"persist"`
}

// JobSnapshot aliases the job manager's wire snapshot — the GET /v1/jobs
// and GET /v1/jobs/{id} body — so serve's HTTP clients need only this
// package.
type JobSnapshot = jobs.Snapshot

// JobAccepted is the 202 body of POST /v1/learn and /v1/repair: poll
// GET /v1/jobs/{id} for completion.
type JobAccepted struct {
	JobID string     `json:"job_id"`
	Kind  jobs.Kind  `json:"kind"`
	Site  string     `json:"site"`
	State jobs.State `json:"state"`
}

// clampTimeout applies a request's timeout_ms to a server-side base
// deadline: it may shorten the deadline, never extend it.
func clampTimeout(base time.Duration, ms int) time.Duration {
	if ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; t < base {
			return t
		}
	}
	return base
}

// RunMaintenance is the learn/repair work both HTTP jobs and the
// auto-repair scanner execute: re-learn the site from fresh pages through
// the repairer (stage → held-out validation → promote only on a strict
// win, or unconditionally for a brand-new site), hot-swap the dispatcher
// binding, and persist the store. It runs on a job worker, never on the
// extract hot path.
func (s *Server) RunMaintenance(ctx context.Context, site string, pages []string, progress func(string)) (*RepairResponse, error) {
	if progress == nil {
		progress = func(string) {}
	}
	prev := 0
	if e, ok := s.cfg.Dispatcher.Store().Active(site); ok {
		prev = e.Version
	}
	progress(fmt.Sprintf("learning from %d pages", len(pages)))
	report, err := s.cfg.Repairer.Repair(ctx, site, pages)
	if err != nil {
		return nil, err
	}
	// Hot-swap so the promoted wrapper serves the very next request.
	persistStart := time.Now()
	progress("validated; refreshing serving binding")
	serving, err := s.cfg.Dispatcher.Refresh(site)
	if err != nil {
		return nil, fmt.Errorf("stored but refresh failed: %w", err)
	}
	// The repairer staged report.Candidate (and possibly promoted it)
	// in the in-memory registry; report the same events to the backend.
	s.lifecycleMu.Lock()
	perr := s.persistEntry(report.Candidate, false)
	if perr == nil && report.Promoted {
		perr = s.persistPromotion(site, store.OpPromote, report.Candidate.Version)
	}
	s.lifecycleMu.Unlock()
	if perr != nil {
		s.cfg.Log.Printf("serve: persisting store after %s job: %v", site, perr)
		return nil, fmt.Errorf("applied but not persisted: %w", perr)
	}
	verdict := "rejected: incumbent keeps serving"
	if report.Promoted {
		verdict = "promoted"
	}
	event, detail := audit.EventCandidate, "repair staged v"+strconv.Itoa(report.Candidate.Version)
	if prev == 0 {
		event, detail = audit.EventLearn, "learned new site"
	}
	s.audit(event, site, report.Candidate.Version, detail)
	if report.Promoted {
		s.audit(audit.EventPromote, site, report.Candidate.Version, "validated: "+verdict)
	}
	return &RepairResponse{
		Site:               site,
		Promoted:           report.Promoted,
		CandidateVersion:   report.Candidate.Version,
		ServingVersion:     serving.Version,
		CandidatePages:     report.CandidateEval.NonEmpty,
		IncumbentPages:     report.IncumbentEval.NonEmpty,
		CandidateRecords:   report.CandidateEval.Records,
		IncumbentRecords:   report.IncumbentEval.Records,
		LearnElapsedMS:     report.LearnElapsed.Milliseconds(),
		ValidationVerdict:  verdict,
		TrainPagesUsed:     report.TrainPages,
		HoldoutPagesUsed:   report.HoldoutPages,
		MonitorReset:       report.Promoted && s.cfg.Dispatcher.Monitor() != nil,
		PreviousServingVer: prev,
		StagesUS: StagesUS{
			Parse:     report.Stages.Parse.Microseconds(),
			Annotate:  report.Stages.Annotate.Microseconds(),
			Build:     report.Stages.Build.Microseconds(),
			Enumerate: report.Stages.Enumerate.Microseconds(),
			Rank:      report.Stages.Rank.Microseconds(),
			Validate:  report.Stages.Validate.Microseconds(),
			Promote:   report.Stages.Promote.Microseconds(),
			Persist:   time.Since(persistStart).Microseconds(),
		},
	}, nil
}

// submitMaintenance enqueues one learn/repair job and answers 202 + job
// id (or 429/503 when the queue is full / the server is draining).
// loadPages materializes the fresh corpus on the job worker — inline
// pages are captured, corpus directories are read at run time.
func (s *Server) submitMaintenance(w http.ResponseWriter, kind jobs.Kind, site string,
	timeout time.Duration, loadPages func() ([]string, error)) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	snap, err := s.cfg.Jobs.Submit(kind, site, func(ctx context.Context, progress func(string)) (any, error) {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		pages, err := loadPages()
		if err != nil {
			return nil, err
		}
		return s.RunMaintenance(ctx, site, pages, progress)
	})
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After",
				strconv.Itoa(int(s.cfg.Gate.RetryAfter()/time.Second)))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, jobs.ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, JobAccepted{
		JobID: snap.ID, Kind: snap.Kind, Site: snap.Site, State: snap.State,
	})
}

// handleRepair enqueues a drift-repair job and returns 202 immediately:
// repair is maintenance-plane work, and holding an HTTP request open
// through a full re-learn would serialize operators (and automation)
// behind the learn pool. Poll GET /v1/jobs/{id} for the outcome.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req LearnRequest
	if !readMaintenance(w, r, &req, false, s.cfg.MaxBodyBytes) {
		return
	}
	s.finishRepair(w, req.repair())
}

// finishRepair validates a decoded repair request and enqueues it on
// this server's job plane. The fleet router routes by req.Site, so the
// re-learn runs on — and hot-swaps — only the owning shard.
func (s *Server) finishRepair(w http.ResponseWriter, req RepairRequest) {
	if s.cfg.Repairer == nil {
		writeError(w, http.StatusNotImplemented,
			"repair is not configured on this server (no annotator)")
		return
	}
	if req.Site == "" || len(req.Pages) < 2 {
		writeError(w, http.StatusBadRequest, "site and at least 2 pages are required")
		return
	}
	if s.refuseNotOwned(w, req.Site) {
		return
	}
	if len(req.Pages) > s.cfg.MaxPages {
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d pages exceeds the per-request cap of %d", len(req.Pages), s.cfg.MaxPages)
		return
	}
	pages := req.Pages
	s.submitMaintenance(w, jobs.KindRepair, req.Site, clampTimeout(s.jobTimeout, req.TimeoutMS),
		func() ([]string, error) { return pages, nil })
}

// handleLearn enqueues a new-site learn job: corpus in (inline or by
// server-side path), validated + promoted wrapper out, hot-swapped into
// the dispatcher — the over-the-wire half of the engine's batch learning.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req LearnRequest
	if !readMaintenance(w, r, &req, true, s.cfg.MaxBodyBytes) {
		return
	}
	s.finishLearn(w, req)
}

// finishLearn validates a decoded learn request and enqueues it. A
// brand-new site routed here by the fleet router lands on the shard the
// ring assigns it, so once learned it serves from the right place.
func (s *Server) finishLearn(w http.ResponseWriter, req LearnRequest) {
	if s.cfg.Repairer == nil {
		writeError(w, http.StatusNotImplemented,
			"learn is not configured on this server (no annotator)")
		return
	}
	if s.refuseNotOwned(w, req.Site) {
		return
	}
	switch {
	case req.Site == "":
		writeError(w, http.StatusBadRequest, "site is required")
		return
	case len(req.Pages) > 0 && req.CorpusDir != "":
		writeError(w, http.StatusBadRequest, "set pages or corpus_dir, not both")
		return
	case len(req.Pages) == 0 && req.CorpusDir == "":
		writeError(w, http.StatusBadRequest, "pages or corpus_dir is required")
		return
	case req.CorpusDir == "" && len(req.Pages) < 2:
		writeError(w, http.StatusBadRequest, "at least 2 pages are required")
		return
	case len(req.Pages) > s.cfg.MaxPages:
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d pages exceeds the per-request cap of %d", len(req.Pages), s.cfg.MaxPages)
		return
	}
	loadPages := func() ([]string, error) { return req.Pages, nil }
	if req.CorpusDir != "" {
		dir, err := s.confineCorpusDir(req.CorpusDir)
		if err != nil {
			writeError(w, http.StatusForbidden, "%v", err)
			return
		}
		loadPages = func() ([]string, error) { return readCorpusDir(dir, s.cfg.MaxPages) }
	}
	s.submitMaintenance(w, jobs.KindLearn, req.Site, clampTimeout(s.jobTimeout, req.TimeoutMS), loadPages)
}

// confineCorpusDir resolves a learn request's corpus_dir against the
// configured root and rejects anything outside it (or everything, when no
// root is configured) — the HTTP surface must not become an arbitrary
// filesystem read. Both sides are resolved through symlinks before the
// containment check, so a link planted under the root cannot smuggle the
// walk out of it.
func (s *Server) confineCorpusDir(dir string) (string, error) {
	if s.cfg.LearnCorpusRoot == "" {
		return "", fmt.Errorf("corpus_dir is disabled on this server (no corpus root configured); post inline pages instead")
	}
	root, err := filepath.Abs(s.cfg.LearnCorpusRoot)
	if err != nil {
		return "", fmt.Errorf("corpus root: %v", err)
	}
	if root, err = filepath.EvalSymlinks(root); err != nil {
		return "", fmt.Errorf("corpus root: %v", err)
	}
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	resolved, err := filepath.EvalSymlinks(filepath.Clean(dir))
	if err != nil {
		return "", fmt.Errorf("corpus_dir %s: %v", dir, err)
	}
	if resolved != root && !strings.HasPrefix(resolved, root+string(filepath.Separator)) {
		return "", fmt.Errorf("corpus_dir %s is outside the configured corpus root", dir)
	}
	return resolved, nil
}

// readCorpusDir loads a learn job's corpus from a (confined) server-side
// directory: its *.html files — flat, not recursive — sorted by name,
// capped at maxPages.
func readCorpusDir(dir string, maxPages int) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".html") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) < 2 {
		return nil, fmt.Errorf("corpus dir %s: need at least 2 *.html files, found %d", dir, len(names))
	}
	if len(names) > maxPages {
		names = names[:maxPages]
	}
	pages := make([]string, len(names))
	for i, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("corpus dir: %w", err)
		}
		pages[i] = string(b)
	}
	return pages, nil
}

// handleJobs lists every retained job.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Jobs == nil {
		writeJSON(w, http.StatusOK, []jobs.Snapshot{})
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Jobs.List())
}

// handleJobGet serves GET /v1/jobs/{id}; the router extracted id.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, id string) {
	if s.cfg.Jobs == nil {
		writeError(w, http.StatusNotFound, "no job manager on this server")
		return
	}
	snap, err := s.cfg.Jobs.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleJobCancel serves POST /v1/jobs/{id}/cancel; the router extracted id.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, id string) {
	if s.cfg.Jobs == nil {
		writeError(w, http.StatusNotFound, "no job manager on this server")
		return
	}
	snap, err := s.cfg.Jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, snap)
	}
}
