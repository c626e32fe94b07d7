// Package serve turns the learn/store/extract/drift pieces into one
// deployable serving system: a store-backed multi-site Dispatcher that
// keeps one hot-swappable extraction runtime per site, an admission Gate
// that bounds the request hot path with backpressure instead of collapse,
// per-site serving metrics (QPS, latency quantiles, runtime health), and an
// HTTP layer (Server) exposing extraction plus the wrapper-lifecycle admin
// operations — promote, rollback, drift repair — over the wire.
//
// The hot-swap design is the heart of the package. Each served site holds
// its current runtime behind an atomic pointer; a request loads the pointer
// once and extracts through that runtime to completion, so a concurrent
// store.Promote or Rollback never tears a wrapper out from under an
// in-flight request — the swap only changes what the *next* request loads.
// Staleness is detected through the store's per-site epoch counter (see
// store.Epoch): the pointer is re-validated against the epoch on every
// request, which costs one RLock'd map read, and rebuilt lazily when the
// registry moved. No file watching, no polling loop, no request ever served
// by a wrapper the store no longer considers active (beyond the one it
// already started with).
package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autowrap/internal/drift"
	"autowrap/internal/extract"
	"autowrap/internal/store"
)

// ErrUnknownSite reports a request for a site the store has no versions
// for. The HTTP layer maps it to 404.
var ErrUnknownSite = errors.New("serve: unknown site")

// ErrNoActiveVersion reports a site that exists in the store but has only
// unpromoted candidate versions — nothing is cleared to serve. The HTTP
// layer maps it to 409.
var ErrNoActiveVersion = errors.New("serve: site has no promoted version")

// Options configures a Dispatcher.
type Options struct {
	// Workers bounds each extraction run's worker pool (<= 0 selects
	// GOMAXPROCS). Single-page requests bypass the pool entirely.
	Workers int
	// Monitor, when set, gets every served site registered (with its stored
	// learn-time profile) and every completed page observed — the drift
	// detection half of the maintenance loop. On a version swap the site's
	// window is reset against the new profile.
	Monitor *drift.Monitor
	// RecentPages, when positive, keeps the last N raw page HTMLs served
	// per site (a bounded ring). The ring copies each page it keeps: a page
	// handed to Extract may be a view of a request body that is reused once
	// the request is answered. This is the fuel for autonomous repair: a drifted
	// site's freshest pages are by definition the ones that just failed to
	// extract, and the maintenance scanner re-learns from exactly those —
	// no operator round-trip to collect a new corpus. 0 disables the cache
	// (and with it, auto-repair).
	RecentPages int
}

// Dispatcher routes extraction requests to per-site hot-swappable
// runtimes, all backed by one wrapper store. It is safe for concurrent
// use; build one per serving process.
type Dispatcher struct {
	store *store.Store
	opt   Options
	sites sync.Map // site name -> *siteState
}

// NewDispatcher builds a dispatcher over the store. Runtimes are built
// lazily on first request per site and rebuilt when the site's store epoch
// moves (Put/Promote/Rollback); call Refresh to swap eagerly.
func NewDispatcher(st *store.Store, opt Options) *Dispatcher {
	return &Dispatcher{store: st, opt: opt}
}

// Store returns the backing wrapper store.
func (d *Dispatcher) Store() *store.Store { return d.store }

// Monitor returns the drift monitor wired into served runtimes (nil when
// monitoring is disabled).
func (d *Dispatcher) Monitor() *drift.Monitor { return d.opt.Monitor }

// served is one immutable (runtime, version, epoch) binding. Requests load
// it atomically and keep using it to completion; swaps publish a new one.
type served struct {
	entry store.Entry
	epoch uint64
	rt    *extract.Runtime
}

// siteState is the per-site slot: the atomic current binding, the rebuild
// lock serializing slow-path swaps, the site's serving metrics, and the
// bounded recent-page ring auto-repair re-learns from.
type siteState struct {
	name    string
	cur     atomic.Pointer[served]
	mu      sync.Mutex // serializes refresh; never held on the hot path
	metrics SiteMetrics

	pageMu   sync.Mutex
	pages    []string // ring of the last Options.RecentPages served HTMLs
	pageNext int
	pageN    int
}

// rememberPages records served page HTMLs into the site's bounded ring.
// The ring outlives the request and a page may be a view of its body (see
// Dispatcher.Extract), so what it keeps it copies.
func (st *siteState) rememberPages(cap int, pages []extract.Page) {
	st.pageMu.Lock()
	defer st.pageMu.Unlock()
	if st.pages == nil {
		st.pages = make([]string, cap)
	}
	for i := range pages {
		if pages[i].HTML == "" {
			continue // pre-parsed pages carry no raw HTML to re-learn from
		}
		st.pages[st.pageNext] = strings.Clone(pages[i].HTML)
		st.pageNext = (st.pageNext + 1) % len(st.pages)
		if st.pageN < len(st.pages) {
			st.pageN++
		}
	}
}

// recentPages snapshots the ring, oldest first.
func (st *siteState) recentPages() []string {
	st.pageMu.Lock()
	defer st.pageMu.Unlock()
	if st.pageN == 0 {
		return nil
	}
	out := make([]string, 0, st.pageN)
	start := st.pageNext - st.pageN
	if start < 0 {
		start += len(st.pages)
	}
	for i := 0; i < st.pageN; i++ {
		out = append(out, st.pages[(start+i)%len(st.pages)])
	}
	return out
}

// runtime returns the site's current binding, rebuilding it when the store
// epoch moved. The fast path is one atomic load plus one store.Epoch read.
// A serving slot is only ever created for sites the store knows, so a
// stream of junk site names cannot grow the slot map without bound.
func (d *Dispatcher) runtime(site string) (*served, *siteState, error) {
	v, ok := d.sites.Load(site)
	if !ok {
		if _, known := d.store.Latest(site); !known {
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownSite, site)
		}
		v, _ = d.sites.LoadOrStore(site, &siteState{name: site})
	}
	st := v.(*siteState)
	cur := st.cur.Load()
	if cur != nil && cur.epoch == d.store.Epoch(site) {
		return cur, st, nil
	}
	sv, err := d.refresh(st)
	return sv, st, err
}

// refresh rebuilds the site's binding from the store under the site's
// rebuild lock. The epoch is read *before* the active entry, so a mutation
// landing between the two reads leaves the published binding stale in a
// detectable way — the next request sees the moved epoch and refreshes
// again. In-flight requests keep the binding they loaded; the swap is an
// atomic pointer publish, never an in-place mutation.
func (d *Dispatcher) refresh(st *siteState) (*served, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	epoch := d.store.Epoch(st.name)
	cur := st.cur.Load()
	if cur != nil && cur.epoch == epoch {
		return cur, nil // another request already refreshed
	}
	entry, ok := d.store.Active(st.name)
	if !ok {
		if _, staged := d.store.Latest(st.name); staged {
			return nil, fmt.Errorf("%w: %q has only unpromoted candidates", ErrNoActiveVersion, st.name)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownSite, st.name)
	}
	if cur != nil && cur.entry.Version == entry.Version {
		// The epoch moved but the serving version did not (a staged
		// candidate, a re-promote of the active version): republish with the
		// fresh epoch, keeping the runtime and its lifetime health counters.
		next := &served{entry: entry, epoch: epoch, rt: cur.rt}
		st.cur.Store(next)
		return next, nil
	}
	p, err := entry.Compile()
	if err != nil {
		return nil, fmt.Errorf("serve: site %q v%d: %w", st.name, entry.Version, err)
	}
	eopt := extract.Options{Workers: d.opt.Workers}
	if d.opt.Monitor != nil {
		h := d.opt.Monitor.Register(st.name, entry.Profile)
		if cur != nil {
			// Version swap: re-arm the window against the new wrapper's
			// profile so the old wrapper's failures don't trip the new one.
			h.Reset(entry.Profile)
		}
		eopt.OnResult = h.Observe
	}
	next := &served{entry: entry, epoch: epoch, rt: extract.New(p, eopt)}
	st.cur.Store(next)
	return next, nil
}

// Refresh eagerly re-validates the site's binding against the store,
// swapping the runtime if the active version changed. Admin operations call
// it so a promote/rollback takes effect before the response is written; it
// returns the entry now serving.
func (d *Dispatcher) Refresh(site string) (store.Entry, error) {
	sv, _, err := d.runtime(site)
	if err != nil {
		return store.Entry{}, err
	}
	return sv.entry, nil
}

// Extraction is one request's outcome: which wrapper version served it and
// the per-page results.
type Extraction struct {
	Site    string
	Version int
	// Results is index-aligned with the request's pages.
	Results []extract.Result
	// Elapsed is the request's extraction wall time.
	Elapsed time.Duration
}

// Extract applies the site's active wrapper to the pages. Per-page failures
// land in the corresponding Result.Err; the error return is reserved for
// site-level problems (unknown site, no promoted version, compile failure)
// and context cancellation. The runtime binding is loaded once — a
// concurrent promote or rollback does not affect pages already in flight.
//
// Deadlines act at page boundaries, matching extract.Runtime.Run: a page
// already extracting always runs to completion (wrapper evaluation is
// CPU-bound and not interruptible), cancellation stops further pages from
// starting. A single-page request therefore either fails before starting
// (expired context) or returns its full result.
//
// A page's HTML may be a view of memory the caller reuses once it has
// consumed the Extraction — the HTTP handler passes views of its pooled
// request body. Extract reads no page after it returns (Run waits for every
// page it started), the Results' Texts may alias the pages and are the
// caller's to copy or consume first, and whatever Extract keeps beyond the
// call, the recent-page ring, it copies.
func (d *Dispatcher) Extract(ctx context.Context, site string, pages []extract.Page) (*Extraction, error) {
	sv, st, err := d.runtime(site)
	if err != nil {
		if st != nil {
			st.metrics.errors.Add(1)
		}
		return nil, err
	}
	if d.opt.RecentPages > 0 {
		st.rememberPages(d.opt.RecentPages, pages)
	}
	start := time.Now()
	ext := &Extraction{Site: site, Version: sv.entry.Version}
	if len(pages) == 1 && ctx.Err() == nil {
		// Single-page fast path: no pool, no batch allocation.
		ext.Results = []extract.Result{sv.rt.ExtractOne(pages[0])}
		ext.Elapsed = time.Since(start)
		st.metrics.observe(ext)
		return ext, nil
	}
	batch, runErr := sv.rt.Run(ctx, pages)
	ext.Results = batch.Results
	ext.Elapsed = time.Since(start)
	st.metrics.observe(ext)
	if runErr != nil {
		return ext, fmt.Errorf("serve: site %q: %w", site, runErr)
	}
	return ext, nil
}

// Records returns the extracted record texts of successful pages, flattened
// in page order.
func (e *Extraction) Records() []string {
	var out []string
	for i := range e.Results {
		if e.Results[i].Err == nil {
			out = append(out, e.Results[i].Texts...)
		}
	}
	return out
}

// RecentPages returns the site's cached recent page HTMLs, oldest first
// (nil when Options.RecentPages is 0 or nothing was served yet). The
// maintenance scanner feeds these to the repairer as the fresh corpus.
func (d *Dispatcher) RecentPages(site string) []string {
	v, ok := d.sites.Load(site)
	if !ok {
		return nil
	}
	return v.(*siteState).recentPages()
}

// Promote makes an existing stored version the site's serving version and
// hot-swaps the runtime before returning. In-flight requests finish on the
// version they started with.
func (d *Dispatcher) Promote(site string, version int) (store.Entry, error) {
	if _, err := d.store.Promote(site, version); err != nil {
		return store.Entry{}, err
	}
	return d.Refresh(site)
}

// Rollback reverts the site to its previously promoted version and
// hot-swaps the runtime before returning.
func (d *Dispatcher) Rollback(site string) (store.Entry, error) {
	if _, err := d.store.Rollback(site); err != nil {
		return store.Entry{}, err
	}
	return d.Refresh(site)
}

// SiteStatus describes one site's serving state for /v1/sites and
// /metrics.
type SiteStatus struct {
	Site string `json:"site"`
	// Shard is the owning shard in a sharded fleet (always 0 on a
	// single-dispatcher server). The fleet router stamps it, so a client
	// can tell which shard serves a site.
	Shard int `json:"shard"`
	// Versions counts stored versions; ActiveVersion is the promoted one (0
	// when only candidates exist).
	Versions      int `json:"versions"`
	ActiveVersion int `json:"active_version"`
	// ServingVersion is the version the dispatcher currently holds a
	// runtime for (0 before the first request builds one). It can trail
	// ActiveVersion until the next request or Refresh swaps.
	ServingVersion int    `json:"serving_version"`
	Lang           string `json:"lang,omitempty"`
	Epoch          uint64 `json:"epoch"`
	// Health is the current runtime's lifetime page ledger.
	Health *extract.HealthCounts `json:"health,omitempty"`
	// Drift is the site's monitor window, when monitoring is on.
	Drift *drift.Stats `json:"drift,omitempty"`
	// Metrics is the site's serving-side request ledger.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// Status reports the serving state of every site in the store, sorted by
// name.
func (d *Dispatcher) Status() []SiteStatus {
	sites := d.store.Sites()
	out := make([]SiteStatus, 0, len(sites))
	for _, name := range sites {
		s := SiteStatus{
			Site:     name,
			Versions: len(d.store.History(name)),
			Epoch:    d.store.Epoch(name),
		}
		if e, ok := d.store.Active(name); ok {
			s.ActiveVersion, s.Lang = e.Version, e.Lang
		}
		if v, ok := d.sites.Load(name); ok {
			st := v.(*siteState)
			if sv := st.cur.Load(); sv != nil {
				s.ServingVersion = sv.entry.Version
				h := sv.rt.Health()
				s.Health = &h
			}
			m := st.metrics.Snapshot()
			s.Metrics = &m
		}
		if d.opt.Monitor != nil {
			if h, ok := d.opt.Monitor.Site(name); ok {
				ds := h.Stats()
				s.Drift = &ds
			}
		}
		out = append(out, s)
	}
	return out
}

// metricsAccumNow folds every served site's live ledger into one
// accumulator — the building block for a dispatcher-wide (and, merged
// across shards, fleet-wide) metrics aggregate. Sites that never served
// a request have no ledger yet and contribute nothing.
func (d *Dispatcher) metricsAccumNow(now time.Time) WireAccum {
	var acc WireAccum
	d.sites.Range(func(_, v any) bool {
		acc.addSite(&v.(*siteState).metrics, now)
		return true
	})
	return acc
}
