// Package extract is the serving half of the learn/serve split: a
// high-throughput extraction runtime that applies one compiled wrapper
// (wrapper.Portable) to pages at serving time. It mirrors the engine's
// deployment contract on the other side of the store: bounded workers on
// the internal/par pool, per-page error and panic isolation, context
// cancellation, throughput stats (pages/sec, records/sec), and output that
// is byte-identical whatever the worker count: ExtractOne serves one page on
// the caller's goroutine, Run a batch into index-aligned results.
//
// Every completed page additionally feeds the runtime's lifetime Health
// counters and the optional Options.OnResult tap; both are allocation-light
// so they can stay on the serving fast path. internal/drift builds its
// sliding-window template-drift detection on top of these signals.
package extract

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"autowrap/internal/par"
	"autowrap/internal/wrapper"
)

// Page is one unit of serving work: the wrapper reads its HTML on a worker
// (through the tolerant parser, so parsing itself never fails — only an
// empty page is an error).
type Page struct {
	// ID identifies the page in results (a URL, a file path).
	ID string
	// HTML is the raw page source.
	HTML string
}

// Result is one page's extraction outcome.
type Result struct {
	// ID and Index echo the input page and its position in the batch.
	ID    string
	Index int
	// Texts are the extracted records' trimmed contents in document order.
	// The rule is matched while the page is tokenized and no tree is
	// built, so there are only Texts; callers that need the matched nodes
	// parse the page themselves.
	Texts []string
	// Err is the page's failure, including recovered panics and — for
	// pages never started — the run's cancellation cause.
	Err error
	// Elapsed is the page's wall-clock extraction latency.
	Elapsed time.Duration
}

// Stats aggregates a run.
type Stats struct {
	// Pages = Extracted + Failed + Unstarted.
	Pages, Extracted, Failed, Unstarted int
	// Records is the total number of extracted records.
	Records int
	// Workers is the effective pool size used.
	Workers int
	// Wall is the run's wall-clock time; Work the sum of per-page
	// latencies (serial-equivalent time). Work/Wall is the pool speedup.
	Wall, Work time.Duration
	// MaxPage is the slowest single page's latency.
	MaxPage time.Duration
}

// PagesPerSec is the throughput over started pages.
func (s Stats) PagesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Pages-s.Unstarted) / s.Wall.Seconds()
}

// RecordsPerSec is the record throughput.
func (s Stats) RecordsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Records) / s.Wall.Seconds()
}

// Speedup is the measured pool speedup: serial-equivalent work over wall.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Wall)
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"pages=%d extracted=%d failed=%d unstarted=%d records=%d workers=%d wall=%v pages/sec=%.1f records/sec=%.1f speedup=%.2fx",
		s.Pages, s.Extracted, s.Failed, s.Unstarted, s.Records, s.Workers,
		s.Wall.Round(time.Millisecond), s.PagesPerSec(), s.RecordsPerSec(), s.Speedup())
}

// Batch is the outcome of one Run: one Result per input page,
// index-aligned, plus aggregate stats.
type Batch struct {
	Results []Result
	Stats   Stats
}

// Failed returns the results with a non-nil Err.
func (b *Batch) Failed() []Result {
	var out []Result
	for _, r := range b.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Options configures a Runtime.
type Options struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// OnResult, when set, is called once per completed page — successes
	// and failures alike — on the goroutine that extracted it (the
	// caller's, for ExtractOne), before the result is delivered. It is the
	// serving-side health tap: a drift monitor hooks here to observe empty
	// extractions, failures and record counts without touching the result
	// path. The callback runs concurrently from every worker and sits on
	// the serving fast path, so it must be safe for concurrent use and
	// allocation-light.
	OnResult func(*Result)
}

// Runtime applies one compiled wrapper to pages. It is safe for concurrent
// use; build one per served (site, wrapper version) pair. Apart from its
// lifetime Health counters it is stateless.
type Runtime struct {
	p      wrapper.Portable
	opt    Options
	health Health
}

// New builds an extraction runtime serving the given compiled wrapper.
func New(p wrapper.Portable, opt Options) *Runtime {
	return &Runtime{p: p, opt: opt}
}

// Wrapper returns the compiled wrapper being served.
func (r *Runtime) Wrapper() wrapper.Portable { return r.p }

// Health is the runtime's lifetime health ledger: monotonic counters over
// every page the runtime has served, across ExtractOne and Run calls alike.
// Updates are a handful of atomic adds on the worker that extracted the
// page, so reading them never perturbs the serving fast path. Fields are
// read with HealthCounts; the struct itself is internal to Runtime.
type Health struct {
	pages   atomic.Int64
	failed  atomic.Int64
	empty   atomic.Int64
	records atomic.Int64
}

// HealthCounts is a point-in-time snapshot of a runtime's lifetime health.
// Counters are read individually (not under a lock), so a snapshot taken
// while pages are in flight may be off by the pages completing during the
// read — fine for monitoring, which only looks at ratios and trends.
type HealthCounts struct {
	// Pages counts every completed page; Failed the pages whose extraction
	// errored (parse-less input, panics); Empty the pages that succeeded
	// but yielded zero records — the classic silent-drift signal.
	Pages  int64 `json:"pages"`
	Failed int64 `json:"failed"`
	Empty  int64 `json:"empty"`
	// Records totals the extracted records over all successful pages.
	Records int64 `json:"records"`
}

// Health snapshots the runtime's lifetime health counters.
func (r *Runtime) Health() HealthCounts {
	return HealthCounts{
		Pages:   r.health.pages.Load(),
		Failed:  r.health.failed.Load(),
		Empty:   r.health.empty.Load(),
		Records: r.health.records.Load(),
	}
}

// observe updates the health ledger and fires the OnResult tap for one
// completed page, on the goroutine that extracted it.
func (r *Runtime) observe(res *Result) {
	r.health.pages.Add(1)
	switch {
	case res.Err != nil:
		r.health.failed.Add(1)
	case len(res.Texts) == 0:
		r.health.empty.Add(1)
	default:
		r.health.records.Add(int64(len(res.Texts)))
	}
	if r.opt.OnResult != nil {
		r.opt.OnResult(res)
	}
}

// ExtractOne applies the wrapper to a single page synchronously on the
// calling goroutine — the low-latency serving path for single-page
// requests. It keeps Run's per-page contract (panic isolation, health
// accounting, the OnResult tap) but skips pool dispatch and batch
// allocation entirely, so an HTTP handler can call it per request without
// paying the batch machinery for one page.
//
// No tree is built (see Result.Texts): the steady-state fast path
// allocates only the Texts it hands back. TestExtractOneAllocBudget pins
// that budget.
func (r *Runtime) ExtractOne(pg Page) Result {
	res := r.one(pg, 0)
	r.observe(&res)
	return res
}

// Run extracts every page of a batch on the worker pool. The returned
// Batch always has one entry per page (index-aligned, so output is
// independent of the worker count); per-page failures land in that page's
// Result.Err and never abort the run. Each page takes ExtractOne's path,
// so a batch costs its pages' ExtractOne budgets plus a fixed term
// (TestRunAllocBudget). The error return is reserved for
// cancellation: when ctx is done before every page was processed, Run
// stops claiming new pages, marks the unstarted ones with ctx's error, and
// returns that error alongside the partial results.
func (r *Runtime) Run(ctx context.Context, pages []Page) (*Batch, error) {
	batch := &Batch{Results: make([]Result, len(pages))}
	batch.Stats.Pages = len(pages)
	batch.Stats.Workers = par.Workers(r.opt.Workers, len(pages))

	started := make([]bool, len(pages))
	start := time.Now()
	ctxErr := par.ForContext(ctx, len(pages), r.opt.Workers, func(i int) {
		started[i] = true
		batch.Results[i] = r.one(pages[i], i)
		r.observe(&batch.Results[i])
	})
	batch.Stats.Wall = time.Since(start)

	for i := range batch.Results {
		res := &batch.Results[i]
		if !started[i] {
			res.ID, res.Index = pages[i].ID, i
			res.Err = fmt.Errorf("extract: page %q not started: %w", pages[i].ID, ctxErr)
			batch.Stats.Unstarted++
			continue
		}
		batch.Stats.tally(res)
	}
	return batch, ctxErr
}

func (s *Stats) tally(res *Result) {
	s.Work += res.Elapsed
	if res.Elapsed > s.MaxPage {
		s.MaxPage = res.Elapsed
	}
	if res.Err != nil {
		s.Failed++
		return
	}
	s.Extracted++
	s.Records += len(res.Texts)
}

// one extracts a single page with panic isolation — the one per-page path
// under ExtractOne and Run. A page is read once by one rule, so the rule is
// applied to the source itself (ApplyHTML) and no tree is built. Texts are
// always safe to keep: they alias the page's HTML or are freshly allocated.
func (r *Runtime) one(pg Page, idx int) (out Result) {
	out.ID, out.Index = pg.ID, idx
	start := time.Now()
	defer func() {
		out.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			out.Texts = nil
			out.Err = fmt.Errorf("extract: page %q panicked: %v\n%s", pg.ID, p, debug.Stack())
		}
	}()
	if pg.HTML == "" {
		// Kept byte for byte: clients read it as a page's error on the wire.
		out.Err = fmt.Errorf("extract: page %q: neither Root nor HTML set", pg.ID)
		return
	}
	out.Texts = r.p.ApplyHTML(pg.HTML)
	return
}
