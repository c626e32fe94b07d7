// Package engine is the concurrent multi-site learning engine: the paper's
// noise-tolerant induction pipeline (annotate → enumerate → rank) applied
// the way Dalvi et al. actually deploy it — as a large batch over hundreds
// of independent websites. Each site is an isolated unit of work: the batch
// runs on a bounded worker pool, a failing (or even panicking) site yields
// an error in its own slot without disturbing the rest, cancellation stops
// the batch at the next stage boundary of each running site, and the engine
// aggregates throughput and latency statistics so speedups are measurable
// rather than anecdotal.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"autowrap/internal/annotate"
	"autowrap/internal/bitset"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/par"
	"autowrap/internal/wrapper"
)

// SiteSpec describes one site of a batch. Corpus plus an inductor factory
// are required; labels come from Labels when set, otherwise from running
// Annotator over the corpus.
type SiteSpec struct {
	// Name identifies the site in results and error messages.
	Name string
	// Corpus is the site's parsed page set.
	Corpus *corpus.Corpus
	// Annotator produces the site's noisy labels. Ignored when Labels is
	// non-nil.
	Annotator annotate.Annotator
	// Labels are precomputed noisy labels (optional).
	Labels *bitset.Set
	// NewInductor builds the site's wrapper inductor; inductors are bound
	// to a corpus, so each site needs its own.
	NewInductor func(c *corpus.Corpus) (wrapper.Inductor, error)
	// Config is the per-site learning configuration (scorer, ranking
	// variant, enumeration algorithm and bounds).
	Config core.Config
}

// validate reports a structural problem with the spec, if any.
func (s *SiteSpec) validate() error {
	switch {
	case s.Corpus == nil:
		return fmt.Errorf("engine: site %q: Corpus is nil", s.Name)
	case s.NewInductor == nil:
		return fmt.Errorf("engine: site %q: NewInductor is nil", s.Name)
	case s.Labels == nil && s.Annotator == nil:
		return fmt.Errorf("engine: site %q: need Labels or Annotator", s.Name)
	case s.Config.Scorer == nil:
		return fmt.Errorf("engine: site %q: Config.Scorer is nil", s.Name)
	}
	return nil
}

// SiteResult is one site's outcome. Exactly one of Result/Err/Skipped
// describes the outcome; Labels is set whenever annotation ran.
type SiteResult struct {
	// Name and Index echo the spec.
	Name  string
	Index int
	// Corpus echoes the spec's corpus, so downstream consumers (the
	// wrapper store computing a learn-time health profile, accuracy
	// evaluation) can interpret the winner's ordinal extraction without
	// re-threading the specs.
	Corpus *corpus.Corpus
	// Labels are the noisy labels the site was learned from.
	Labels *bitset.Set
	// Result is the ranked wrapper space (nil on error or skip).
	Result *core.Result
	// Err is the site's failure, including recovered panics and — for
	// sites never started or stopped between stages — the batch's
	// cancellation cause.
	Err error
	// Skipped marks sites whose label count fell below Options.MinLabels.
	Skipped bool
	// Elapsed is the site's wall-clock learning latency; Stages says where
	// it went.
	Elapsed time.Duration
	Stages  Stages
}

// Stages is the wall-clock time of each stage of one site's pipeline. A
// stage the site did not reach (or, for Annotate, that precomputed Labels
// made unnecessary) is zero.
type Stages struct {
	Annotate, Build, Enumerate, Rank time.Duration
}

// Stats aggregates a batch run.
type Stats struct {
	// Sites = Learned + Failed + Skipped + Unstarted.
	Sites, Learned, Failed, Skipped, Unstarted int
	// Workers is the effective pool size used.
	Workers int
	// Wall is the batch's wall-clock time; Work is the sum of per-site
	// latencies (the serial-equivalent time). Work/Wall is the measured
	// pool speedup.
	Wall, Work time.Duration
	// MaxSite is the slowest single site's latency — the lower bound any
	// worker count can reach.
	MaxSite time.Duration
	// EnumCalls totals the inductor calls across learned sites.
	EnumCalls int64
}

// SitesPerSec is the batch throughput over started sites.
func (s Stats) SitesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Sites-s.Unstarted) / s.Wall.Seconds()
}

// Speedup is the measured parallel speedup: serial-equivalent work time
// over wall time.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Wall)
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"sites=%d learned=%d failed=%d skipped=%d unstarted=%d workers=%d wall=%v work=%v speedup=%.2fx sites/sec=%.2f",
		s.Sites, s.Learned, s.Failed, s.Skipped, s.Unstarted, s.Workers,
		s.Wall.Round(time.Millisecond), s.Work.Round(time.Millisecond),
		s.Speedup(), s.SitesPerSec())
}

// BatchResult is the outcome of one LearnBatch run: one SiteResult per
// input spec, index-aligned, plus aggregate stats.
type BatchResult struct {
	Sites []SiteResult
	Stats Stats
}

// Failed returns the results with a non-nil Err.
func (b *BatchResult) Failed() []SiteResult {
	var out []SiteResult
	for _, r := range b.Sites {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// MinLabels skips sites whose annotator yields fewer labels (default
	// 1: learn whenever there is any label at all). The paper's accuracy
	// experiments use 2 — a single label carries no list signal.
	MinLabels int
	// Progress, when set, is called after each site completes (in
	// completion order, serialized by the engine). done counts completed
	// sites so far.
	Progress func(done, total int, r SiteResult)
}

// Engine is a reusable multi-site batch learner. The zero value is valid
// and uses GOMAXPROCS workers.
type Engine struct {
	opt Options
}

// New builds an engine with the given options.
func New(opt Options) *Engine {
	if opt.MinLabels <= 0 {
		opt.MinLabels = 1
	}
	return &Engine{opt: opt}
}

// LearnBatch learns every site concurrently on the engine's worker pool.
// The returned BatchResult always has one entry per spec (index-aligned);
// per-site failures — bad specs, annotators with too few labels, inductor
// or learning errors, panics — land in that site's SiteResult.Err/Skipped
// and never abort the batch. The error return is reserved for batch-level
// cancellation: when ctx is done before every site finished, LearnBatch
// stops claiming new sites, stops each running site at its next stage
// boundary (after annotate, build, enumerate, rank), marks those and the
// unstarted ones with ctx's error, and returns that error alongside the
// partial results.
func (e *Engine) LearnBatch(ctx context.Context, specs []SiteSpec) (*BatchResult, error) {
	opt := e.opt
	if opt.MinLabels <= 0 {
		opt.MinLabels = 1
	}
	batch := &BatchResult{Sites: make([]SiteResult, len(specs))}
	batch.Stats.Sites = len(specs)
	batch.Stats.Workers = par.Workers(opt.Workers, len(specs))

	started := make([]bool, len(specs))
	var mu sync.Mutex // guards progress ordering and the done counter
	done := 0

	start := time.Now()
	ctxErr := par.ForContext(ctx, len(specs), opt.Workers, func(i int) {
		started[i] = true
		batch.Sites[i] = learnSite(ctx, i, &specs[i], opt.MinLabels)
		if opt.Progress != nil {
			mu.Lock()
			done++
			opt.Progress(done, len(specs), batch.Sites[i])
			mu.Unlock()
		}
	})
	batch.Stats.Wall = time.Since(start)

	for i := range batch.Sites {
		r := &batch.Sites[i]
		if !started[i] {
			r.Name, r.Index = specs[i].Name, i
			r.Err = fmt.Errorf("engine: site %q not started: %w", specs[i].Name, ctxErr)
			batch.Stats.Unstarted++
			continue
		}
		batch.Stats.Work += r.Elapsed
		if r.Elapsed > batch.Stats.MaxSite {
			batch.Stats.MaxSite = r.Elapsed
		}
		switch {
		case r.Skipped:
			batch.Stats.Skipped++
		case r.Err != nil:
			batch.Stats.Failed++
			if ctxErr == nil && ctx.Err() != nil && errors.Is(r.Err, ctx.Err()) {
				ctxErr = ctx.Err() // every site started, this one was cut short
			}
		default:
			batch.Stats.Learned++
			batch.Stats.EnumCalls += r.Result.EnumCalls
		}
	}
	return batch, ctxErr
}

// learnSite runs the full per-site pipeline with panic isolation, giving up
// between stages once ctx is done.
func learnSite(ctx context.Context, index int, spec *SiteSpec, minLabels int) (out SiteResult) {
	out.Name, out.Index = spec.Name, index
	start := time.Now()
	defer func() {
		out.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			out.Result, out.Skipped = nil, false
			out.Err = fmt.Errorf("engine: site %q panicked: %v\n%s",
				spec.Name, p, debug.Stack())
		}
	}()
	if err := spec.validate(); err != nil {
		out.Err = err
		return
	}
	out.Corpus = spec.Corpus
	stopped := func(after string) bool {
		err := ctx.Err()
		if err != nil {
			out.Err = fmt.Errorf("engine: site %q: stopped after %s: %w", spec.Name, after, err)
		}
		return err != nil
	}
	labels := spec.Labels
	if labels == nil {
		labels = spec.Annotator.Annotate(spec.Corpus)
		out.Stages.Annotate = time.Since(start)
	}
	out.Labels = labels
	if stopped("annotate") {
		return
	}
	if labels.Count() < minLabels {
		out.Skipped = true
		return
	}
	buildStart := time.Now()
	ind, err := spec.NewInductor(spec.Corpus)
	if err != nil {
		out.Err = fmt.Errorf("engine: site %q: inductor: %w", spec.Name, err)
		return
	}
	out.Stages.Build = time.Since(buildStart)
	if stopped("build") {
		return
	}
	res, err := core.LearnContext(ctx, ind, labels, spec.Config)
	if err != nil {
		out.Err = fmt.Errorf("engine: site %q: learn: %w", spec.Name, err)
		return
	}
	out.Result = res
	out.Stages.Enumerate, out.Stages.Rank = res.Enumerate, res.Rank
	return
}

// LearnBatch is the package-level convenience: one batch on a fresh engine.
func LearnBatch(ctx context.Context, specs []SiteSpec, opt Options) (*BatchResult, error) {
	return New(opt).LearnBatch(ctx, specs)
}
