// Package drift closes the wrapper lifecycle loop: learn → store → serve →
// monitor → relearn → promote/rollback. A wrapper learned today silently
// decays as its site changes templates (Ferrara & Baumgartner's
// self-repairing wrappers problem); this package detects the decay from
// serving-side health signals and dispatches validated re-learning.
//
// The two halves:
//
//   - Monitor aggregates the per-page health signals the extraction runtime
//     emits (internal/extract's Options.OnResult tap) into per-site sliding
//     windows and trips a site when the window violates the Policy: too many
//     empty extractions, too many failures, or a record-count collapse
//     relative to the wrapper's learn-time Profile (stored with the wrapper
//     in internal/store). The observation path sits on the serving fast
//     path, so it is allocation-free: a preallocated ring buffer plus O(1)
//     running sums under a per-site mutex.
//
//   - Repairer answers a trip: it re-learns the site through
//     internal/engine on the freshest pages, stages the winner as a new
//     unpromoted version in the store (store.PutCandidate), validates it
//     against the incumbent on a held-out sample of those same pages, and
//     only promotes when the candidate beats the incumbent — serving never
//     flips to an unvalidated wrapper, and the incumbent stays one
//     store.Rollback away.
//
// A trip latches: once a site trips it stays tripped until a repair (or an
// explicit Reset) re-arms it, so a flapping site cannot dispatch concurrent
// re-learns.
package drift

import (
	"fmt"
	"sort"
	"sync"

	"autowrap/internal/extract"
	"autowrap/internal/store"
)

// Policy configures when a site's sliding window trips. The zero value
// selects usable defaults (window 32, trip after 8 pages at >50% empties,
// >50% failures, or mean records below 50% of the learn-time profile).
type Policy struct {
	// Window is the sliding-window size in pages (default 32).
	Window int
	// MinPages is the minimum number of observed pages before the window
	// may trip (default 8): a single bad page proves nothing.
	MinPages int
	// MaxEmptyFrac trips the site when the fraction of successful-but-empty
	// pages in the window exceeds it (default 0.5). Failed pages trip it
	// above a fixed fraction, maxFailFrac.
	MaxEmptyFrac float64
	// CollapseFrac trips the site when the window's mean record count drops
	// below CollapseFrac times the learn-time profile mean (default 0.5).
	// Ignored for sites registered without a profile.
	CollapseFrac float64
	// Cooldown is the number of observations after a Reset (i.e. after a
	// repair) during which trip checks stay disarmed, letting the window
	// refill with post-repair pages (default: Window).
	Cooldown int
}

// maxFailFrac trips a site when more than this fraction of its window's
// pages failed.
const maxFailFrac = 0.5

func (p Policy) withDefaults() Policy {
	if p.Window <= 0 {
		p.Window = 32
	}
	if p.MinPages <= 0 {
		p.MinPages = 8
	}
	if p.MinPages > p.Window {
		p.MinPages = p.Window
	}
	if p.MaxEmptyFrac <= 0 {
		p.MaxEmptyFrac = 0.5
	}
	if p.CollapseFrac <= 0 {
		p.CollapseFrac = 0.5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = p.Window
	}
	return p
}

// Stats is a point-in-time snapshot of one site's health window.
type Stats struct {
	// Site names the monitored site.
	Site string `json:"site"`
	// Pages counts every observation since registration; WindowPages the
	// observations currently in the sliding window.
	Pages       int64 `json:"pages"`
	WindowPages int64 `json:"window_pages"`
	// EmptyFrac, FailFrac and MeanRecords describe the current window.
	EmptyFrac   float64 `json:"empty_frac"`
	FailFrac    float64 `json:"fail_frac"`
	MeanRecords float64 `json:"mean_records"`
	// ProfileMean is the learn-time mean record count (0 when the site was
	// registered without a profile).
	ProfileMean float64 `json:"profile_mean"`
	// Tripped reports the latched trip state; Trips counts lifetime trips.
	Tripped bool  `json:"tripped"`
	Trips   int64 `json:"trips"`
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	state := "healthy"
	if s.Tripped {
		state = "TRIPPED"
	}
	return fmt.Sprintf(
		"site=%s %s pages=%d window=%d empty=%.2f fail=%.2f mean-records=%.2f profile-mean=%.2f trips=%d",
		s.Site, state, s.Pages, s.WindowPages, s.EmptyFrac, s.FailFrac,
		s.MeanRecords, s.ProfileMean, s.Trips)
}

// pageKind classifies one observed page in the ring buffer.
type pageKind uint8

const (
	kindOK pageKind = iota
	kindEmpty
	kindFailed
)

// SiteHealth is one site's sliding-window health state. Build it through
// Monitor.Register; Observe is safe for concurrent use and allocation-free
// (hook it into extract.Options.OnResult on the serving fast path).
type SiteHealth struct {
	site   string
	policy Policy
	onTrip func(site string, s Stats)

	mu          sync.Mutex
	profileMean float64 // 0 = no profile
	records     []int32 // ring, len == policy.Window
	kinds       []pageKind
	n           int // filled entries, <= Window
	next        int // ring write cursor
	sumRecords  int64
	empties     int
	fails       int
	cooldown    int
	tripped     bool
	trips       int64
	total       int64
}

// Observe feeds one completed page's extraction outcome into the window.
// Its signature matches extract.Options.OnResult, so a runtime can be wired
// directly: opt.OnResult = health.Observe.
func (h *SiteHealth) Observe(res *extract.Result) {
	h.Record(len(res.Texts), res.Err != nil)
}

// Record is the signal core: records extracted on one page, or failure.
// O(1), allocation-free, one mutex acquisition.
func (h *SiteHealth) Record(records int, failed bool) {
	var fire func(string, Stats)
	var snap Stats
	h.mu.Lock()
	h.total++
	// Evict the slot being overwritten once the ring is full.
	if h.n == len(h.records) {
		old := h.records[h.next]
		h.sumRecords -= int64(old)
		switch h.kinds[h.next] {
		case kindEmpty:
			h.empties--
		case kindFailed:
			h.fails--
		}
	} else {
		h.n++
	}
	kind := kindOK
	switch {
	case failed:
		kind = kindFailed
		records = 0
	case records == 0:
		kind = kindEmpty
	}
	h.records[h.next] = int32(records)
	h.kinds[h.next] = kind
	h.sumRecords += int64(records)
	switch kind {
	case kindEmpty:
		h.empties++
	case kindFailed:
		h.fails++
	}
	h.next++
	if h.next == len(h.records) {
		h.next = 0
	}
	if h.cooldown > 0 {
		h.cooldown--
	} else if !h.tripped && h.n >= h.policy.MinPages && h.violated() {
		h.tripped = true
		h.trips++
		if h.onTrip != nil {
			fire, snap = h.onTrip, h.statsLocked()
		}
	}
	h.mu.Unlock()
	if fire != nil {
		fire(snap.Site, snap)
	}
}

// violated reports whether the current window breaks the policy. Called
// with the lock held.
func (h *SiteHealth) violated() bool {
	n := float64(h.n)
	if float64(h.empties)/n > h.policy.MaxEmptyFrac {
		return true
	}
	if float64(h.fails)/n > maxFailFrac {
		return true
	}
	if h.profileMean > 0 {
		if float64(h.sumRecords)/n < h.policy.CollapseFrac*h.profileMean {
			return true
		}
	}
	return false
}

// Tripped reports the latched trip state.
func (h *SiteHealth) Tripped() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tripped
}

// Stats snapshots the window.
func (h *SiteHealth) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.statsLocked()
}

func (h *SiteHealth) statsLocked() Stats {
	s := Stats{
		Site:        h.site,
		Pages:       h.total,
		WindowPages: int64(h.n),
		ProfileMean: h.profileMean,
		Tripped:     h.tripped,
		Trips:       h.trips,
	}
	if h.n > 0 {
		n := float64(h.n)
		s.EmptyFrac = float64(h.empties) / n
		s.FailFrac = float64(h.fails) / n
		s.MeanRecords = float64(h.sumRecords) / n
	}
	return s
}

// Reset clears the window and the latched trip, installs the new
// learn-time profile (nil keeps the previous one), and arms the cooldown so
// the freshly promoted wrapper gets a full window of post-repair pages
// before trip checks resume. The repairer calls this after a promotion.
func (h *SiteHealth) Reset(profile *store.Profile) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n, h.next = 0, 0
	h.sumRecords, h.empties, h.fails = 0, 0, 0
	h.tripped = false
	h.cooldown = h.policy.Cooldown
	if profile != nil {
		h.profileMean = profile.MeanRecords
	}
}

// Monitor is the per-site health registry: one SiteHealth per served site,
// all under one Policy. It is safe for concurrent use; the per-site
// observation paths never contend with each other.
type Monitor struct {
	policy Policy
	onTrip func(site string, s Stats) // SetOnTrip's hook, nil until set

	mu    sync.RWMutex
	sites map[string]*SiteHealth
}

// NewMonitor builds a monitor; zero Policy fields select defaults.
func NewMonitor(policy Policy) *Monitor {
	return &Monitor{
		policy: policy.withDefaults(),
		sites:  make(map[string]*SiteHealth),
	}
}

// Register adds a site under the monitor's policy, calibrated against the
// wrapper's learn-time profile (nil disables the collapse check, leaving
// empties and failures). Registering an existing site returns the existing
// health untouched — wire the same SiteHealth into every runtime serving
// the site.
func (m *Monitor) Register(site string, profile *store.Profile) *SiteHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.sites[site]; ok {
		return h
	}
	h := &SiteHealth{
		site:    site,
		policy:  m.policy,
		onTrip:  m.onTrip,
		records: make([]int32, m.policy.Window),
		kinds:   make([]pageKind, m.policy.Window),
	}
	if profile != nil {
		h.profileMean = profile.MeanRecords
	}
	m.sites[site] = h
	return h
}

// SetOnTrip installs (or replaces) the trip hook on the monitor and on
// every already-registered site; it is the one way to install one. The
// hook fires once per trip — the moment a site's window first violates the
// policy — with the site name and the tripping stats, on the serving
// worker that observed the tripping page, outside the site's lock: keep it
// cheap and concurrency-safe (log, enqueue a repair job). A maintenance
// plane built after the monitor (the usual construction order in a
// serving daemon: store → monitor → dispatcher → repairer → job queue)
// attaches itself here.
func (m *Monitor) SetOnTrip(fn func(site string, s Stats)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onTrip = fn
	for _, h := range m.sites {
		h.mu.Lock()
		h.onTrip = fn
		h.mu.Unlock()
	}
}

// Site returns the registered health for the site, if any.
func (m *Monitor) Site(site string) (*SiteHealth, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.sites[site]
	return h, ok
}

// Tripped lists the currently tripped sites, sorted — the repair loop's
// work queue.
func (m *Monitor) Tripped() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for name, h := range m.sites {
		if h.Tripped() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every registered site's stats, keyed by site.
func (m *Monitor) Snapshot() map[string]Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]Stats, len(m.sites))
	for name, h := range m.sites {
		out[name] = h.Stats()
	}
	return out
}
