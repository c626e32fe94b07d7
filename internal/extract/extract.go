// Package extract is the serving half of the learn/serve split: a
// high-throughput extraction runtime that applies one compiled wrapper
// (wrapper.Portable) to a stream of pages. It mirrors the engine's
// deployment contract on the other side of the store: bounded workers on
// the internal/par pool, per-page error and panic isolation, context
// cancellation, throughput stats (pages/sec, records/sec), and output that
// is byte-identical whatever the worker count — Run writes index-aligned
// results, Stream reorders completions back into input order.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autowrap/internal/dom"
	"autowrap/internal/par"
	"autowrap/internal/wrapper"
)

// Page is one unit of serving work. Root takes precedence when set;
// otherwise the wrapper reads HTML on a worker (through the tolerant
// parser, so parsing itself never fails — only an empty page is an error).
type Page struct {
	// ID identifies the page in results (a URL, a file path).
	ID string
	// HTML is the raw page source.
	HTML string
	// Root is the pre-parsed page, for callers that already hold a tree.
	Root *dom.Node
}

// Result is one page's extraction outcome.
type Result struct {
	// ID and Index echo the input page and its position in the stream.
	ID    string
	Index int
	// Texts are the extracted records' trimmed contents in document order.
	Texts []string
	// Nodes are the matched text nodes of a page that arrived as Page.Root
	// — nodes of the caller's own tree. They are nil when the page failed,
	// and nil whenever the page arrived as Page.HTML, through ExtractOne,
	// Run and Stream alike: the rule is matched while that page is
	// tokenized and no tree is built, so there are only Texts. Callers
	// that need the matched nodes parse the page themselves and pass the
	// Root.
	Nodes []*dom.Node
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
	// Buffer bounds Stream's in-flight window — pages that have been
	// consumed from the input but not yet emitted as results, whether
	// queued, being extracted, or completed and waiting for an earlier
	// page (in-order delivery can hold at most Buffer completed results
	// behind a slow head-of-line page). <= 0 selects 2 x workers; values
	// below Workers throttle the pool to Buffer concurrent pages.
	Buffer int
	// OnResult, when set, is called once per completed page — successes
	// and failures alike — on the worker goroutine that extracted it,
	// before the result is delivered. It is the serving-side health tap:
	// a drift monitor hooks here to observe empty extractions, failures
	// and record counts without touching the result path. The callback
	// runs concurrently from every worker and sits on the serving fast
	// path, so it must be safe for concurrent use and allocation-light.
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
// every page the runtime has served, across Run and Stream calls alike.
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

// EmptyFrac is the fraction of completed pages that succeeded with zero
// records (0 when nothing was served yet).
func (h HealthCounts) EmptyFrac() float64 {
	if h.Pages == 0 {
		return 0
	}
	return float64(h.Empty) / float64(h.Pages)
}

// FailFrac is the fraction of completed pages that errored.
func (h HealthCounts) FailFrac() float64 {
	if h.Pages == 0 {
		return 0
	}
	return float64(h.Failed) / float64(h.Pages)
}

// MeanRecords is the mean record count over non-failed pages.
func (h HealthCounts) MeanRecords() float64 {
	ok := h.Pages - h.Failed
	if ok <= 0 {
		return 0
	}
	return float64(h.Records) / float64(ok)
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
// completed page. Called on the worker goroutine, for Run and Stream both.
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
// When the page arrives as raw HTML (Page.Root == nil) no tree is built
// (see Result.Nodes): the steady-state fast path allocates only the Texts
// it hands back. TestExtractOneAllocBudget pins that budget.
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
// under ExtractOne, Run and Stream. A page arriving as raw HTML is read once
// by one rule, so the rule is applied to the source itself (ApplyHTML) and
// no tree exists to hand out: Result.Nodes stays nil for it. Texts are
// always safe to keep: they alias the page's HTML or are freshly allocated.
func (r *Runtime) one(pg Page, idx int) (out Result) {
	out.ID, out.Index = pg.ID, idx
	start := time.Now()
	defer func() {
		out.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			out.Texts, out.Nodes = nil, nil
			out.Err = fmt.Errorf("extract: page %q panicked: %v\n%s", pg.ID, p, debug.Stack())
		}
	}()
	switch {
	case pg.Root != nil:
		out.Nodes = r.p.ApplyPage(pg.Root)
		out.Texts = make([]string, len(out.Nodes))
		for i, n := range out.Nodes {
			out.Texts[i] = strings.TrimSpace(n.Data)
		}
	case pg.HTML != "":
		out.Texts = r.p.ApplyHTML(pg.HTML)
	default:
		out.Err = fmt.Errorf("extract: page %q: neither Root nor HTML set", pg.ID)
	}
	return
}

// Stream is a running streaming extraction: results arrive on Results in
// input order. Read Stats only after Results is closed.
type Stream struct {
	results chan Result
	done    chan struct{}
	stats   Stats
}

// Results delivers one Result per consumed page, in input order, and
// closes when the input channel closes (or the context is cancelled; the
// emitted results are then a prefix of the input order). The consumer must
// drain Results or cancel the context — the window is bounded, so an
// abandoned stream otherwise blocks its workers.
func (st *Stream) Results() <-chan Result { return st.results }

// Stats blocks until the stream has finished, then reports aggregates.
func (st *Stream) Stats() Stats {
	<-st.done
	return st.stats
}

// Stream extracts pages as they arrive on in, with bounded workers and a
// bounded in-flight window, emitting results in input order regardless of
// which worker finishes first — the streaming path keeps the same
// determinism contract as Run, and the same per-page path (see
// Result.Nodes). Cancelling ctx stops the stream at the next
// page boundary; the results already emitted form a prefix of the input.
func (r *Runtime) Stream(ctx context.Context, in <-chan Page) *Stream {
	workers := r.opt.Workers
	if workers <= 0 {
		workers = par.Workers(0, 1<<30)
	}
	buffer := r.opt.Buffer
	if buffer <= 0 {
		buffer = 2 * workers
	}

	type job struct {
		idx  int
		page Page
	}
	st := &Stream{results: make(chan Result), done: make(chan struct{})}
	st.stats.Workers = workers
	jobs := make(chan job, buffer)
	outs := make(chan Result, buffer)

	// credits caps the in-flight window: the dispatcher takes one per page
	// consumed, the collector returns one per result emitted. This is what
	// keeps the reorder buffer bounded — a slow head-of-line page stalls
	// dispatch after Buffer pages instead of letting every later completion
	// pile up in memory. It also guarantees at most Buffer results are ever
	// outstanding, so worker sends into outs (capacity Buffer) never block.
	credits := make(chan struct{}, buffer)
	for i := 0; i < buffer; i++ {
		credits <- struct{}{}
	}

	// Dispatcher: sequence the input.
	go func() {
		defer close(jobs)
		idx := 0
		for {
			select {
			case <-ctx.Done():
				return
			case pg, ok := <-in:
				if !ok {
					return
				}
				select {
				case <-credits:
				case <-ctx.Done():
					return
				}
				select {
				case jobs <- job{idx: idx, page: pg}:
					idx++
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Workers: extract, push completions.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res := r.one(j.page, j.idx)
				r.observe(&res)
				select {
				case outs <- res:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outs)
	}()

	// Collector: reorder completions into input order and emit.
	go func() {
		defer close(st.done)
		defer close(st.results)
		start := time.Now()
		defer func() { st.stats.Wall = time.Since(start) }()
		pending := make(map[int]Result)
		next := 0
		for res := range outs {
			pending[res.Index] = res
			for {
				head, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case st.results <- head:
				case <-ctx.Done():
					// Consumer is gone; drain workers and stop.
					for range outs {
					}
					return
				}
				st.stats.Pages++
				st.stats.tally(&head)
				next++
				credits <- struct{}{} // never blocks: ≤ Buffer outstanding
			}
		}
	}()
	return st
}
