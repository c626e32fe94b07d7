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
	// Shard is this server's partition of the ring (0 standalone); it tags
	// backend appends and audit records.
	Shard int
	// Ring is the ring Handler routes over, with this node serving
	// partition Shard and every other partition answered 421
	// (ErrNotOwner): one independently booted partition of a fleet. Nil
	// is a ring of one, whose only partition is this node's.
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

// Server is one node: the dispatcher's hot path behind admission control,
// the job plane and the wrapper lifecycle over one partition of the
// registry. It has no routes of its own — a ShardRouter serves it, calling
// it directly as the ShardClient of its partition, and Handler is the
// router over this one node. Build one with NewServer (or
// NewNode), and call SetDraining(true) before shutdown so load balancers
// stop sending.
type Server struct {
	cfg ServerConfig
	// jobTimeout is the per-job learn/repair deadline: 10x RequestTimeout,
	// learning being orders of magnitude heavier than extraction. A job's
	// timeout_ms may shorten it, never extend it.
	jobTimeout time.Duration
	draining   atomic.Bool
	ownJobs    bool // the manager is the server's to drain on Close, not the caller's
	// router is Handler's route table over this node, built on first use.
	routerOnce sync.Once
	router     *ShardRouter
	// drainedJobs makes the job plane's drain one-shot: /v1/drain, the
	// process's own shutdown and Close may all ask, the first does the work.
	drainedJobs atomic.Bool
	// lifecycleMu serializes {in-memory mutation, backend append} pairs
	// so the event order a log backend replays matches the order the
	// registry actually mutated. Lifecycle events are rare (admin calls,
	// repair completions); this never touches the extract hot path.
	lifecycleMu sync.Mutex
	// maint is the auto-repair loop onTrip kicks, set by NewNode before it
	// installs the hook (nil: trips are logged and audited, nothing is
	// enqueued).
	maint *maintainer
}

// NewServer builds the HTTP layer over a dispatcher and whatever other
// parts the caller picked by hand; NewNode is the assembly that picks
// them all.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("serve: ServerConfig.Dispatcher is required")
	}
	if cfg.Ring != nil && (cfg.Shard < 0 || cfg.Shard >= cfg.Ring.Shards()) {
		return nil, fmt.Errorf("serve: ServerConfig.Shard %d is not a partition of a %d-shard ring", cfg.Shard, cfg.Ring.Shards())
	}
	if cfg.Backend != nil {
		cfg.Backend.Attach(cfg.Shard, cfg.Dispatcher.Store())
	}
	ownJobs := cfg.Jobs == nil && cfg.Repairer != nil
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, jobTimeout: 10 * cfg.RequestTimeout, ownJobs: ownJobs}, nil
}

// Close releases what the server owns: it stops the auto-repair loop and,
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
// when to stop accepting connections. Draining also stops the auto-repair
// loop, for good: a node on its way out enqueues nothing new.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
	if v {
		s.stopMaintainer()
	}
}

func (s *Server) stopMaintainer() {
	if s.maint != nil {
		s.maint.stop()
	}
}

// Drain runs the job plane dry exactly once: new submissions are already
// rejected (the caller flipped draining), accepted jobs — queued as well
// as running — execute to completion, and only when ctx expires first is
// the remainder canceled; then the workers exit. It is the last step of
// every role's shutdown (SetDraining(true) → HTTPServer.Shutdown →
// Drain) and what POST /v1/drain asks of it; whoever asks first does the
// work, so an HTTP-initiated fleet drain followed by SIGTERM cannot
// double-drain the manager. Nil manager or a repeat call is a no-op.
func (s *Server) Drain(ctx context.Context) error {
	m := s.cfg.Jobs
	if m == nil || !s.drainedJobs.CompareAndSwap(false, true) {
		return nil
	}
	return m.Quiesce(ctx)
}

// onTrip is the node's trip hook, which NewNode installs on the monitor
// for the node's whole life: a drift trip is logged with its shard and
// audited whether or not anything can act on it — also while draining —
// and kicks auto-repair until the loop stops. It runs on the serving
// worker that observed the tripping page.
func (s *Server) onTrip(site string, st drift.Stats) {
	s.cfg.Log.Printf("DRIFT TRIPPED (shard %d): %s", s.cfg.Shard, st)
	s.audit(audit.Entry{Event: audit.EventDriftTrip, Site: site, Detail: st.String()})
	if s.maint != nil {
		s.maint.kick(site)
	}
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

// writeOverloaded answers a full extract gate and a full job queue alike:
// 429 with the gate's Retry-After hint.
func (s *Server) writeOverloaded(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", s.cfg.Gate.retryAfter)
	writeError(w, http.StatusTooManyRequests, "%v", err)
}

// readJSONLimited decodes a JSON body of at most max bytes, rejecting
// trailing garbage.
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

// writeDecodeError answers the 400 of a body the wire decoders refused.
func writeDecodeError(w http.ResponseWriter, err error) {
	if err == errTrailing {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
}

// extract validates the extract request the router decoded into sc and
// serves it: admission through this node's gate, extraction through
// this node's dispatcher. This is the allocation-disciplined serving path:
// the body landed in a pooled buffer and decoded in place (see wire.go),
// page HTML flows straight into the parser via the dispatcher, and the
// response is appended into a pooled buffer and written with an explicit
// Content-Length.
func (s *Server) extract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	if sc.site == "" {
		writeError(w, http.StatusBadRequest, "site is required")
		return
	}
	n := len(sc.pages)
	if sc.hasSingle {
		if n > 0 {
			writeError(w, http.StatusBadRequest, "set page or pages, not both")
			return
		}
		n = 1
	}
	if n == 0 {
		writeError(w, http.StatusBadRequest, "no pages")
		return
	}
	if n > s.cfg.MaxPages {
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d pages exceeds the per-request cap of %d", n, s.cfg.MaxPages)
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
			s.writeOverloaded(w, err)
			return
		}
		writeError(w, siteStatusCode(err), "while queued: %v", err)
		return
	}
	defer release()

	if cap(sc.in) < n {
		sc.in = make([]extract.Page, n)
	} else {
		sc.in = sc.in[:n]
	}
	if sc.hasSingle {
		sc.in[0] = sc.single.page(0)
	}
	for i := range sc.pages {
		sc.in[i] = sc.pages[i].page(i)
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

// healthz is this node's health view, as the router reads it: its site
// count, and whether it is draining.
func (s *Server) healthz(context.Context) (HealthzResponse, error) {
	resp := HealthzResponse{Status: "ok", Sites: s.cfg.Dispatcher.Store().Len()}
	if s.draining.Load() {
		resp.Status = "draining"
	}
	return resp, nil
}

// metrics is this node's contribution to /metrics at now: Gate, Jobs,
// Audit, Accum and Sites.
func (s *Server) metrics(_ context.Context, now time.Time) (MetricsResponse, error) {
	rep := MetricsResponse{
		Gate:  s.cfg.Gate.Snapshot(),
		Sites: s.cfg.Dispatcher.Status(),
		Accum: s.cfg.Dispatcher.metricsAccumNow(now),
	}
	if s.cfg.Jobs != nil {
		m := s.cfg.Jobs.Metrics()
		rep.Jobs = &m
	}
	if s.cfg.Audit != nil {
		a := s.cfg.Audit.Stats()
		rep.Audit = &a
	}
	return rep, nil
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

// auditView is this node's view of its ledger, n records at most.
func (s *Server) auditView(_ context.Context, n int) (AuditResponse, error) {
	resp := AuditResponse{Records: []audit.Record{}}
	if s.cfg.Audit != nil {
		resp.Enabled = true
		resp.Path = s.cfg.Audit.Path()
		resp.Stats = s.cfg.Audit.Stats()
		if recs := s.cfg.Audit.Recent(n); recs != nil {
			resp.Records = recs
		}
	}
	return resp, nil
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

// audit records lifecycle events in the ledger, with one fsync for all.
// Ledger trouble is logged, never bounced to the client — the mutation
// itself is already durable through the backend, and the ledger's own
// chain makes a gap visible to Verify-driven monitoring.
func (s *Server) audit(events ...audit.Entry) {
	if err := s.cfg.Audit.AppendAll(s.cfg.Shard, events...); err != nil {
		s.cfg.Log.Printf("serve: audit %s %s: %v", events[0].Event, events[0].Site, err)
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

// admitLifecycle answers the 400 of a promote that names no site or no
// version, or a rollback that names no site; it reports whether the
// request got past that.
func admitLifecycle(w http.ResponseWriter, op store.Op, req AdminRequest) bool {
	switch {
	case op == store.OpRollback && req.Site == "":
		writeError(w, http.StatusBadRequest, "site is required")
		return false
	case op != store.OpRollback && (req.Site == "" || req.Version < 1):
		writeError(w, http.StatusBadRequest, "site and version >= 1 are required")
		return false
	}
	return true
}

// lifecycle applies a decoded promote (store.OpPromote) or rollback
// (store.OpRollback) against this node's dispatcher — the router calls
// the owning partition's, so the hot-swap (and its epoch bump) happens
// only in the node that serves the site.
func (s *Server) lifecycle(w http.ResponseWriter, _ *http.Request, op store.Op, req AdminRequest) {
	if !admitLifecycle(w, op, req) {
		return
	}
	apply := func() (store.Entry, error) { return s.cfg.Dispatcher.Promote(req.Site, req.Version) }
	event, detail := audit.EventPromote, "admin promote"
	if op == store.OpRollback {
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
		s.audit(audit.Entry{Event: event, Site: req.Site, Version: entry.Version, Detail: detail})
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
	// in the in-memory registry; report the same to the backend as one
	// record, so no replay can find the version stored but not promoted.
	s.lifecycleMu.Lock()
	perr := s.persistEntry(report.Candidate, report.Promoted)
	s.lifecycleMu.Unlock()
	if perr != nil {
		s.cfg.Log.Printf("serve: persisting store after %s job: %v", site, perr)
		return nil, fmt.Errorf("applied but not persisted: %w", perr)
	}
	verdict := "rejected: incumbent keeps serving"
	if report.Promoted {
		verdict = "promoted"
	}
	events := []audit.Entry{{Event: audit.EventCandidate, Site: site, Version: report.Candidate.Version,
		Detail: "repair staged v" + strconv.Itoa(report.Candidate.Version)}}
	if prev == 0 {
		events[0].Event, events[0].Detail = audit.EventLearn, "learned new site"
	}
	if report.Promoted {
		events = append(events, audit.Entry{Event: audit.EventPromote, Site: site,
			Version: report.Candidate.Version, Detail: "validated: " + verdict})
	}
	s.audit(events...)
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
			s.writeOverloaded(w, err)
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

// admitMaintenance answers the 501 of a node that cannot learn or repair
// and the 400 of a request that names no site — or of a repair that brings
// fewer than 2 pages; it reports whether the request got past both.
func (s *Server) admitMaintenance(w http.ResponseWriter, site string, pages int, learn bool) bool {
	what := "repair"
	if learn {
		what = "learn"
	}
	switch {
	case s.cfg.Repairer == nil:
		writeError(w, http.StatusNotImplemented, "%s is not configured on this server (no annotator)", what)
	case learn && site == "":
		writeError(w, http.StatusBadRequest, "site is required")
	case !learn && (site == "" || pages < 2):
		writeError(w, http.StatusBadRequest, "site and at least 2 pages are required")
	default:
		return true
	}
	return false
}

// maintain validates a decoded learn (learn set) or repair request and
// enqueues the job on this node's job plane, answering 202 at once:
// holding an HTTP request open through a full re-learn would serialize
// operators (and automation) behind the learn pool. A learn brings its
// corpus inline or by server-side path; a repair brings its pages inline —
// its decoder skips corpus_dir, and admission has already refused fewer
// than 2 pages, so only the page cap can refuse it past that. The router
// routes by req.Site, so the job runs on — and hot-swaps — only the owning
// node, and a brand-new site is learned where its extracts will land.
func (s *Server) maintain(w http.ResponseWriter, _ *http.Request, req LearnRequest, _ []byte, learn bool) {
	if !s.admitMaintenance(w, req.Site, len(req.Pages), learn) {
		return
	}
	switch {
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
	kind, loadPages := jobs.KindRepair, func() ([]string, error) { return req.Pages, nil }
	if learn {
		kind = jobs.KindLearn
	}
	if req.CorpusDir != "" {
		dir, err := s.confineCorpusDir(req.CorpusDir)
		if err != nil {
			writeError(w, http.StatusForbidden, "%v", err)
			return
		}
		loadPages = func() ([]string, error) { return readCorpusDir(dir, s.cfg.MaxPages) }
	}
	s.submitMaintenance(w, kind, req.Site, clampTimeout(s.jobTimeout, req.TimeoutMS), loadPages)
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

// listJobs lists this node's retained jobs (none without a job plane).
func (s *Server) listJobs(context.Context) ([]jobs.Snapshot, error) {
	if s.cfg.Jobs == nil {
		return nil, nil
	}
	return s.cfg.Jobs.List(), nil
}

// job answers GET /v1/jobs/{id}, or POST /v1/jobs/{id}/cancel when cancel
// is set, if this node's job plane knows the job; it reports false, having
// written nothing, if it does not.
func (s *Server) job(w http.ResponseWriter, _ *http.Request, id string, cancel bool) bool {
	if s.cfg.Jobs == nil {
		return false
	}
	if !cancel {
		snap, err := s.cfg.Jobs.Get(id)
		if err != nil {
			return false
		}
		writeJSON(w, http.StatusOK, snap)
		return true
	}
	snap, err := s.cfg.Jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return false
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, snap)
	}
	return true
}
