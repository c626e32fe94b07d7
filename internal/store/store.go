// Package store is the durable half of the learn/serve split: a versioned
// registry of compiled wrappers keyed by site, a stable JSON wire format
// for single wrappers and whole registries, and atomic save/load so a
// serving process can pick up a learning run's winners after a restart.
// Versions are immutable and append-only — re-learning a site adds a new
// version, it never rewrites history — which is what makes a stored wrapper
// a durable artifact rather than a cache entry.
//
// Which version serves is a separate, explicit decision: each site carries
// a promotion log (Put promotes its new version immediately; PutCandidate
// stages one without promoting), Active names the serving version, and
// Promote/Rollback move it. The drift-repair loop in internal/drift leans
// on this split — a re-learned candidate is staged, validated on held-out
// pages, and only then promoted, with the incumbent one Rollback away.
// Entries also record a learn-time health Profile (per-page record counts
// on the training corpus), the baseline drift detection compares against.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"autowrap/internal/engine"
	"autowrap/internal/wrapper"
)

// Profile is the learn-time extraction footprint of a stored wrapper: what
// "healthy" looked like on the pages the wrapper was induced from. A drift
// monitor compares serving-time behaviour against it — a record-count
// collapse or a surge of empty pages relative to the profile is the signal
// that the site's template changed underneath the wrapper.
type Profile struct {
	// Pages is the number of training pages the profile was measured over.
	Pages int `json:"pages"`
	// MeanRecords is the mean record count over all profiled pages.
	MeanRecords float64 `json:"mean_records"`
	// EmptyFrac is the fraction of profiled pages with zero records.
	EmptyFrac float64 `json:"empty_frac"`
}

// Entry is one immutable stored wrapper version for a site.
type Entry struct {
	Site    string  `json:"site"`
	Version int     `json:"version"` // 1-based, ascending per site
	Lang    string  `json:"lang"`
	Rule    string  `json:"rule,omitempty"`
	LR      *LRRule `json:"lr,omitempty"`
	// Score is the ranking score the wrapper won with (0 when unknown).
	Score float64 `json:"score,omitempty"`
	// Labels counts the noisy labels the site was learned from.
	Labels int `json:"labels,omitempty"`
	// Profile is the learn-time health profile, when recorded; drift
	// monitoring is calibrated against it.
	Profile *Profile `json:"profile,omitempty"`
}

// Compile builds the runnable form of the entry. Entries loaded from disk
// were already validated by Load; compiling is cheap (one parse).
func (e *Entry) Compile() (wrapper.Portable, error) {
	w := wireWrapper{Format: FormatVersion, Lang: e.Lang, Rule: e.Rule, LR: e.LR}
	p, err := w.compile()
	if err != nil {
		return nil, fmt.Errorf("store: site %q v%d: %w", e.Site, e.Version, err)
	}
	return p, nil
}

// Store is a concurrency-safe versioned wrapper registry keyed by site.
// The zero value is not usable; call New or Load.
//
// Every site additionally carries a promotion log: the ordered history of
// versions that were made the serving ("active") version. Put promotes the
// new version immediately (newest-serves, the pre-lifecycle behaviour);
// PutCandidate appends a version without promoting it, which is how the
// drift-repair loop stages an unvalidated re-learned wrapper — serving
// flips only on an explicit Promote, and Rollback reverts to the
// previously promoted version.
type Store struct {
	mu        sync.RWMutex
	sites     map[string][]Entry // ascending Version order
	promotion map[string][]int   // per-site promotion log; last = active
	epoch     map[string]uint64  // per-site change counter; see Epoch
	gen       uint64             // global change counter; see Generation
}

// New returns an empty registry.
func New() *Store {
	return &Store{
		sites:     make(map[string][]Entry),
		promotion: make(map[string][]int),
		epoch:     make(map[string]uint64),
	}
}

// Epoch is the site's change counter: 0 until the site is first written,
// then incremented by exactly one on every successful mutation touching the
// site — Put, PutCandidate, Promote and Rollback. A Promote of the
// already-active version is a recorded no-op and still bumps the epoch (the
// caller asked for a serving decision; subscribers get to notice it), while
// failed mutations never do. A serving layer that cached a compiled runtime
// at epoch e needs to re-read the registry exactly when Epoch(site) != e —
// this is the in-memory change-notification hook that lets a dispatcher
// hot-swap on Promote/Rollback without watching the JSON file.
//
// Epochs are process-local: they are not persisted by Save, and a freshly
// Loaded registry starts every site at 0 again (its consumers rebuild from
// scratch anyway).
func (s *Store) Epoch(site string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch[site]
}

// Generation is the registry-wide change counter: the sum of all epoch
// bumps. A poller watching many sites checks Generation first and only
// walks per-site epochs when it moved.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// bump records a mutation of the site. Called with mu held for writing.
func (s *Store) bump(site string) {
	s.epoch[site]++
	s.gen++
}

// Meta carries optional provenance recorded with a stored wrapper.
type Meta struct {
	Score  float64
	Labels int
	// Profile is the learn-time health profile (optional but recommended:
	// without it a drift monitor can only watch for empties and failures,
	// not record-count collapse).
	Profile *Profile
}

// Put compiles-down and appends a new version of the site's wrapper, makes
// it the active (serving) version, and returns the stored entry. The
// previous versions stay addressable and the promotion is recorded, so a
// later Rollback can revert to what served before.
func (s *Store) Put(site string, p wrapper.Portable, meta Meta) (Entry, error) {
	return s.put(site, p, meta, true)
}

// PutCandidate appends a new version of the site's wrapper without
// promoting it: the active version keeps serving. This is the staging half
// of the repair loop — the candidate gets a durable version number and can
// be validated against held-out pages, then either promoted or left in
// history as a rejected attempt.
func (s *Store) PutCandidate(site string, p wrapper.Portable, meta Meta) (Entry, error) {
	return s.put(site, p, meta, false)
}

func (s *Store) put(site string, p wrapper.Portable, meta Meta, promote bool) (Entry, error) {
	if site == "" {
		return Entry{}, fmt.Errorf("store: empty site name")
	}
	w, err := wireOf(p)
	if err != nil {
		return Entry{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := Entry{
		Site:    site,
		Version: len(s.sites[site]) + 1,
		Lang:    w.Lang,
		Rule:    w.Rule,
		LR:      w.LR,
		Score:   meta.Score,
		Labels:  meta.Labels,
		Profile: meta.Profile,
	}
	s.sites[site] = append(s.sites[site], e)
	if promote {
		s.promotion[site] = append(s.promotion[site], e.Version)
	}
	s.bump(site)
	return e, nil
}

// Active returns the site's serving version: the most recently promoted
// one. A site always has an active version as soon as it has any promoted
// version; candidates staged with PutCandidate never show up here until
// they are promoted.
func (s *Store) Active(site string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	log := s.promotion[site]
	if len(log) == 0 {
		return Entry{}, false
	}
	return s.sites[site][log[len(log)-1]-1], true
}

// Promote makes an existing stored version the site's serving version,
// appending to the promotion log. Promoting the already-active version is
// a no-op. This is the only way a staged candidate starts serving — the
// repair loop calls it strictly after held-out validation.
func (s *Store) Promote(site string, version int) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.sites[site]
	if version < 1 || version > len(vs) {
		return Entry{}, fmt.Errorf("store: promote %s: no version %d (have %d)",
			site, version, len(vs))
	}
	log := s.promotion[site]
	if len(log) == 0 || log[len(log)-1] != version {
		s.promotion[site] = append(log, version)
	}
	s.bump(site)
	return vs[version-1], nil
}

// Rollback reverts the site to the version promoted before the current
// one and returns it. It fails when there is no earlier promotion to
// return to — rollback never guesses.
func (s *Store) Rollback(site string) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.promotion[site]
	if len(log) < 2 {
		return Entry{}, fmt.Errorf("store: rollback %s: no previous promoted version (log %v)",
			site, log)
	}
	s.promotion[site] = log[:len(log)-1]
	s.bump(site)
	return s.sites[site][log[len(log)-2]-1], nil
}

// Promotions returns the site's promotion log, oldest first; the last
// element is the active version.
func (s *Store) Promotions(site string) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]int(nil), s.promotion[site]...)
}

// Latest returns the newest version stored for the site.
func (s *Store) Latest(site string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.sites[site]
	if len(vs) == 0 {
		return Entry{}, false
	}
	return vs[len(vs)-1], true
}

// Version returns one specific stored version (1-based).
func (s *Store) Version(site string, version int) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.sites[site]
	if version < 1 || version > len(vs) {
		return Entry{}, false
	}
	return vs[version-1], true
}

// History returns every stored version of the site, oldest first.
func (s *Store) History(site string) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Entry(nil), s.sites[site]...)
}

// Sites lists the registered site names, sorted.
func (s *Store) Sites() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.sites))
	for name := range s.sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len counts registered sites (not versions).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sites)
}

// ProfileOf summarizes per-page record counts into a learn-time Profile.
// Serving pages extracted through the winning wrapper on the training
// corpus is exactly what the wrapper "should" keep doing; drift monitoring
// measures departures from this footprint.
func ProfileOf(recordsPerPage []int) *Profile {
	p := &Profile{Pages: len(recordsPerPage)}
	if p.Pages == 0 {
		return p
	}
	total, empties := 0, 0
	for _, n := range recordsPerPage {
		total += n
		if n == 0 {
			empties++
		}
	}
	p.MeanRecords = float64(total) / float64(p.Pages)
	p.EmptyFrac = float64(empties) / float64(p.Pages)
	return p
}

// PutBatch stores the winners of an engine batch run: for every learned
// site with a best-ranked wrapper, compile it and append a version named by
// the site's spec, recording the learn-time health profile (the winner's
// per-page record counts on its training corpus). Sites that failed, were
// skipped, or whose winner has no portable form are left out; their compile
// errors are joined into err without blocking the rest (mirroring the
// engine's per-site isolation).
func (s *Store) PutBatch(batch *engine.BatchResult) (stored int, err error) {
	var errs []error
	for i := range batch.Sites {
		r := &batch.Sites[i]
		if r.Err != nil || r.Skipped || r.Result == nil || r.Result.Best == nil {
			continue
		}
		p, cerr := Compile(r.Result.Best.Wrapper)
		if cerr != nil {
			errs = append(errs, fmt.Errorf("site %q: %w", r.Name, cerr))
			continue
		}
		meta := Meta{Score: r.Result.Best.Score.Total}
		if r.Labels != nil {
			meta.Labels = r.Labels.Count()
		}
		if r.Corpus != nil {
			meta.Profile = ProfileOf(r.Corpus.PerPageCounts(r.Result.Best.Wrapper.Extract()))
		}
		if _, perr := s.Put(r.Name, p, meta); perr != nil {
			errs = append(errs, perr)
			continue
		}
		stored++
	}
	return stored, errors.Join(errs...)
}

// storeFile is the on-disk format: versioned envelope around the registry.
// Promotions is always written (even empty), so its absence identifies a
// pre-lifecycle file; Load then synthesizes a one-entry log activating
// each site's newest version, which is exactly what those files meant
// (newest-serves). A present-but-sparse map is authoritative: a site with
// versions and no log entry holds only unpromoted candidates and must not
// serve.
type storeFile struct {
	Format     int                `json:"format"`
	Sites      map[string][]Entry `json:"sites"`
	Promotions map[string][]int   `json:"promotions"`
}

// Save writes the registry to path atomically: marshal to a temp file in
// the same directory, then rename over the target, so a crash mid-write
// can never leave a truncated registry where a good one was.
func (s *Store) Save(path string) error {
	data, err := s.Encode()
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".wrapstore-*.json")
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save: %w", err)
	}
	return nil
}

// Load reads a registry saved by Save and validates it eagerly: format
// version, per-site version numbering, promotion-log consistency, and —
// crucially — that every stored rule still compiles. A corrupted or
// hand-edited store fails at load time with the file path and the
// offending site + version named, not at serve time with a bare codec
// error.
func Load(path string) (*Store, error) {
	s, _, err := loadFiltered(path, nil, false)
	return s, err
}

// CorruptEntry names one site LoadRecovered skipped and why. Version is
// the first version that failed validation (0 when the corruption is in
// the site's promotion log rather than an entry).
type CorruptEntry struct {
	Site    string
	Version int
	Err     error
}

func (c CorruptEntry) Error() string {
	return fmt.Sprintf("store: site %q v%d: %v", c.Site, c.Version, c.Err)
}

func (c CorruptEntry) Unwrap() error { return c.Err }

// LoadRecovered reads a registry tolerating per-site corruption: a site
// with a malformed entry (bad key, non-compiling rule) or an inconsistent
// promotion log is skipped whole — versions are an append-only chain, so
// one poisoned link makes the site's history untrustworthy — and reported
// as a CorruptEntry naming the site and version, while every healthy site
// loads normally. This is the recovery path for a registry damaged by a
// mid-write crash or hostile mutation: strict Load refuses the whole
// file, LoadRecovered salvages what provably still compiles.
//
// Envelope-level damage (unreadable file, invalid JSON, unknown format)
// is still fatal: with no trustworthy site boundaries there is nothing to
// salvage entry-by-entry.
func LoadRecovered(path string) (*Store, []CorruptEntry, error) {
	return loadFiltered(path, nil, true)
}

// loadFiltered is Load with an optional site filter and a corruption
// policy. When keep is non-nil, sites it rejects are skipped entirely —
// not stored, and (the point of partitioned loading) not compiled, so a
// shard's load cost is proportional to the partition it owns, not to the
// whole registry; promotion logs for skipped sites are skipped with them.
// When tolerate is true, per-site corruption skips the site and records a
// CorruptEntry instead of failing the load.
func loadFiltered(path string, keep func(site string) bool, tolerate bool) (*Store, []CorruptEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: load: %w", err)
	}
	return decodeFiltered(data, path, keep, tolerate)
}

// decodeFiltered decodes the storeFile wire form with loadFiltered's
// filter and corruption policy; source names the origin in errors.
func decodeFiltered(data []byte, source string, keep func(site string) bool, tolerate bool) (*Store, []CorruptEntry, error) {
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("store: load %s: %w", source, err)
	}
	if f.Format != FormatVersion {
		return nil, nil, fmt.Errorf("store: load %s: unsupported format %d (want %d)",
			source, f.Format, FormatVersion)
	}
	s := New()
	var bad []CorruptEntry
sites:
	for site, vs := range f.Sites {
		if keep != nil && !keep(site) {
			continue
		}
		for i := range vs {
			e := &vs[i]
			if e.Site != site || e.Version != i+1 {
				if tolerate {
					bad = append(bad, CorruptEntry{Site: site, Version: i + 1,
						Err: fmt.Errorf("entry carries key %q v%d", e.Site, e.Version)})
					continue sites
				}
				return nil, nil, fmt.Errorf("store: load %s: site %q v%d: entry carries key %q v%d",
					source, site, i+1, e.Site, e.Version)
			}
			w := wireWrapper{Format: FormatVersion, Lang: e.Lang, Rule: e.Rule, LR: e.LR}
			if _, err := w.compile(); err != nil {
				if tolerate {
					bad = append(bad, CorruptEntry{Site: site, Version: e.Version, Err: err})
					continue sites
				}
				return nil, nil, fmt.Errorf("store: load %s: site %q v%d (%s rule %q): %w",
					source, site, e.Version, e.Lang, e.Rule, err)
			}
		}
		s.sites[site] = vs
	}
	for site, log := range f.Promotions {
		if keep != nil && !keep(site) {
			continue
		}
		vs, ok := s.sites[site]
		if !ok {
			if tolerate {
				if !skippedSite(bad, site) {
					bad = append(bad, CorruptEntry{Site: site,
						Err: fmt.Errorf("promotion log for unknown site")})
				}
				continue
			}
			return nil, nil, fmt.Errorf("store: load %s: promotion log for unknown site %q",
				source, site)
		}
		logOK := true
		for _, v := range log {
			if v < 1 || v > len(vs) {
				if tolerate {
					// The log and the version chain disagree; neither half
					// of the site can be trusted.
					delete(s.sites, site)
					bad = append(bad, CorruptEntry{Site: site,
						Err: fmt.Errorf("promotion log names v%d, have %d version(s)", v, len(vs))})
					logOK = false
					break
				}
				return nil, nil, fmt.Errorf("store: load %s: site %q: promotion log names v%d, have %d version(s)",
					source, site, v, len(vs))
			}
		}
		if logOK && len(log) > 0 {
			s.promotion[site] = log
		}
	}
	// Only a pre-lifecycle file (no promotions key at all) means
	// newest-serves. When the key is present, a site without a log entry
	// holds only unpromoted candidates — synthesizing an active version
	// for it would flip serving to an unvalidated wrapper.
	if f.Promotions == nil {
		for site, vs := range s.sites {
			if len(vs) > 0 {
				s.promotion[site] = []int{len(vs)}
			}
		}
	}
	return s, bad, nil
}

// skippedSite reports whether the site was already recorded as corrupt.
func skippedSite(bad []CorruptEntry, site string) bool {
	for _, c := range bad {
		if c.Site == site {
			return true
		}
	}
	return false
}
