// Package autowrap is a noise-tolerant wrapper induction library for
// structured web extraction, implementing Dalvi, Kumar and Soliman,
// "Automatic Wrappers for Large Scale Web Extraction", PVLDB 4(4), 2011.
//
// Script-generated websites render database records into structurally
// identical pages, so a small extraction rule (a wrapper) — an xpath or a
// pair of string delimiters — extracts every record from every page of a
// site. Classic wrapper induction needs clean per-site labeled examples;
// autowrap instead accepts cheap noisy annotations (a dictionary of known
// entity names, a regular expression) and still learns the right wrapper:
//
//  1. it enumerates the wrapper space — every distinct wrapper any subset
//     of the noisy labels can produce — with the BottomUp (blackbox) or
//     TopDown (feature-based) algorithms, and
//  2. ranks each candidate by P(labels | wrapper output) · P(output),
//     combining an annotator noise model with a web publication model that
//     scores how list-like the output is (record-segment schema size and
//     alignment under KDE-learned distributions).
//
// Basic use:
//
//	c := autowrap.ParsePages(htmlPages)
//	labels := autowrap.DictionaryAnnotator("brands", knownNames).Annotate(c)
//	res, err := autowrap.Learn(autowrap.NewXPathInductor(c), labels,
//	    autowrap.GenericModels(c), autowrap.Options{})
//	// res.Best.Wrapper.Rule() is an xpath; res.Extraction(c) the node set.
//
// Beyond single-site learning the package exposes the full production
// lifecycle: LearnBatch learns many sites concurrently, Compile and the
// WrapperStore turn winners into versioned portable artifacts, NewExtractor
// serves them to unseen pages, and the maintenance loop (NewMonitor,
// Repairer, WrapperStore.Promote/Rollback) detects template drift from
// serving-time health signals and re-learns tripped sites with validated
// promotion. This package is the learner library; it does not wrap the
// serving plane. cmd/wrapserved is the HTTP daemon that serves a store —
// multi-site dispatch with hot-swapped wrapper versions, admission control
// with backpressure, and drift repair over the wire, also on its own
// (-auto-repair) — and it links no code of this package. cmd/soak is its
// soak and chaos harness, and cmd/wrapinduce the offline CLI (learn into a
// store, apply a stored wrapper to fresh pages, roll back). See
// docs/ARCHITECTURE.md for the end-to-end walkthrough.
package autowrap

import (
	"context"
	"fmt"
	"os"

	"autowrap/internal/annotate"
	"autowrap/internal/bitset"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/drift"
	"autowrap/internal/engine"
	"autowrap/internal/enum"
	"autowrap/internal/extract"
	"autowrap/internal/htmlparse"
	"autowrap/internal/lr"
	"autowrap/internal/rank"
	"autowrap/internal/segment"
	"autowrap/internal/stats"
	"autowrap/internal/store"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// Core types, re-exported from the implementation packages.
type (
	// Corpus is a set of parsed pages from one website; text nodes carry
	// global ordinals used by NodeSet.
	Corpus = corpus.Corpus
	// NodeSet is a set of text-node ordinals (labels, extractions).
	NodeSet = bitset.Set
	// Wrapper is a learned extraction rule.
	Wrapper = wrapper.Wrapper
	// Inductor is a wrapper induction system φ (XPATH, LR, ...).
	Inductor = wrapper.Inductor
	// Annotator produces noisy labels over a corpus.
	Annotator = annotate.Annotator
	// Result is a ranked wrapper space; Result.Best is the learned
	// wrapper.
	Result = core.Result
	// Models bundles the annotation and publication models used for
	// ranking.
	Models = rank.Scorer

	// BatchSite describes one site of a batch (corpus + annotator or
	// precomputed labels + inductor factory + learning config).
	BatchSite = engine.SiteSpec
	// BatchOptions bounds a batch run (worker count, label threshold,
	// progress callback).
	BatchOptions = engine.Options
	// BatchResult holds one result per input site, index-aligned, plus the
	// batch's aggregate stats.
	BatchResult = engine.BatchResult
	// LearnConfig is the per-site learning configuration carried by a
	// BatchSite; build one with NewLearnConfig.
	LearnConfig = core.Config

	// Node is one node of a parsed HTML page; serving-time extraction
	// results reference these.
	Node = dom.Node
	// Portable is a compiled, corpus-independent wrapper: the durable
	// artifact of the learn/serve split. Build one with Compile, persist
	// it with MarshalWrapper or a WrapperStore, apply it to unseen pages
	// with ApplyPage or an Extractor.
	Portable = wrapper.Portable
	// WrapperStore is a versioned registry of compiled wrappers keyed by
	// site, with atomic Save/Load.
	WrapperStore = store.Store
	// StoredMeta carries provenance (score, label count) into a store Put.
	StoredMeta = store.Meta

	// Extractor is the extraction runtime: pages in, records out — one
	// page on the caller's goroutine (ExtractOne) or a batch on a bounded
	// worker pool (Run) — with per-page error isolation.
	Extractor = extract.Runtime
	// ExtractPage is one unit of serving work: a page's raw HTML.
	ExtractPage = extract.Page
	// ExtractBatch is an Extractor.Run outcome: index-aligned results
	// plus throughput stats.
	ExtractBatch = extract.Batch
	// ExtractOptions bounds an Extractor's worker count and carries the
	// OnResult health tap a Monitor hooks into.
	ExtractOptions = extract.Options

	// Monitor aggregates serving-time health signals per site and trips a
	// site when its sliding window violates the HealthPolicy — the
	// detection half of the wrapper-maintenance loop. Build one with
	// NewMonitor.
	Monitor = drift.Monitor
	// HealthPolicy configures when a site trips (window size, empty
	// fraction, record-count collapse vs. the learn-time profile; more
	// than half the window failing always trips it).
	HealthPolicy = drift.Policy
	// HealthStats is a point-in-time snapshot of one site's window.
	HealthStats = drift.Stats
	// WrapperProfile is the learn-time extraction footprint stored with a
	// wrapper version; drift detection is calibrated against it.
	WrapperProfile = store.Profile
	// Repairer is the response half of the loop: re-learn a tripped site
	// on fresh pages, stage the winner as a new store version, and promote
	// it only after it beats the incumbent on a held-out sample.
	Repairer = drift.Repairer
)

// Ranking variants (the paper's Sec. 7.3 ablations).
const (
	// VariantNTW uses the full score P(L|X)·P(X).
	VariantNTW = rank.NTW
	// VariantNTWL uses only the annotation term.
	VariantNTWL = rank.NTWL
	// VariantNTWX uses only the publication term.
	VariantNTWX = rank.NTWX
)

// Enumeration algorithm names for Options.Enumerator.
const (
	EnumTopDown  = enum.AlgoTopDown
	EnumBottomUp = enum.AlgoBottomUp
	EnumNaive    = enum.AlgoNaive
)

// ZipcodePattern matches five-digit US zipcodes (the Appendix A regexp
// annotator).
const ZipcodePattern = annotate.ZipcodePattern

// ParsePages parses raw HTML pages from one website into a corpus. The
// parser is tolerant: any input produces a tree.
func ParsePages(htmls []string) *Corpus { return corpus.ParseHTML(htmls) }

// ParseFiles reads and parses HTML files from disk.
func ParseFiles(paths []string) (*Corpus, error) {
	htmls := make([]string, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("autowrap: %w", err)
		}
		htmls[i] = string(b)
	}
	return ParsePages(htmls), nil
}

// DictionaryAnnotator labels every text node containing an exact
// word-boundary mention of a dictionary entry (case-insensitive).
func DictionaryAnnotator(name string, entries []string) Annotator {
	return annotate.NewDictionary(name, entries)
}

// RegexpAnnotator labels every text node matching the pattern.
func RegexpAnnotator(name, pattern string) (Annotator, error) {
	return annotate.NewRegexp(name, pattern)
}

// NewXPathInductor builds the xpath wrapper inductor of Dalvi et al. [6]
// over the corpus: rules are xpaths with child/descendant edges, attribute
// filters and child-number filters.
func NewXPathInductor(c *Corpus) Inductor {
	return xpinduct.New(c, xpinduct.Options{})
}

// NewLRInductor builds the WIEN LR inductor (Kushmerick et al.): rules are
// (left, right) string delimiter pairs over the serialized page, with
// delimiter length capped at maxContext bytes (0 selects the default, 64).
func NewLRInductor(c *Corpus, maxContext int) Inductor {
	return lr.New(c, maxContext)
}

// TrainingSite pairs a corpus with known-good extractions; LearnModels fits
// the ranking models from such samples.
type TrainingSite struct {
	Corpus *Corpus
	Gold   *NodeSet
}

// ModelOptions tunes model learning; zero values select defaults.
type ModelOptions struct {
	// AnnotatorPrecision / AnnotatorRecall override the estimated
	// annotation-model parameters; 0 keeps the estimate from the samples.
	AnnotatorPrecision float64
	AnnotatorRecall    float64
	// BandwidthScale scales the KDE bandwidth (ablation knob).
	BandwidthScale float64
	// MaxSegmentTokens / MaxPairs / EditCap bound the publication-model
	// feature computation.
	MaxSegmentTokens int
	MaxPairs         int
	EditCap          int
}

func (o ModelOptions) segOptions() segment.Options {
	return segment.Options{
		MaxSegmentTokens: o.MaxSegmentTokens,
		MaxPairs:         o.MaxPairs,
		EditCap:          o.EditCap,
	}
}

// LearnModels estimates the annotation model (p, r) of the given annotator
// and fits the publication model's feature distributions from sample sites
// with gold labels (paper Sec. 7: "learned from a sample of half the
// websites").
func LearnModels(samples []TrainingSite, annot Annotator, opt ModelOptions) (*Models, error) {
	var pooled annotate.Stats
	rsamples := make([]rank.SiteSample, 0, len(samples))
	for _, s := range samples {
		labels := annot.Annotate(s.Corpus)
		pooled = pooled.Add(annotate.Measure(s.Corpus, labels, s.Gold))
		rsamples = append(rsamples, rank.SiteSample{Corpus: s.Corpus, Gold: s.Gold})
	}
	p, r := pooled.ModelParams()
	if opt.AnnotatorPrecision > 0 {
		p = opt.AnnotatorPrecision
	}
	if opt.AnnotatorRecall > 0 {
		r = opt.AnnotatorRecall
	}
	pub, err := rank.LearnPublicationModel(rsamples, opt.segOptions(),
		stats.KDEOptions{BandwidthScale: opt.BandwidthScale})
	if err != nil {
		return nil, err
	}
	return &Models{Ann: rank.NewAnnotationModel(p, r), Pub: pub}, nil
}

// GenericModels returns ranking models with broad, domain-independent
// priors: annotator p=0.95/r=0.30 and publication-model distributions
// covering typical record lists (2–6 text fields per record, near-regular
// alignment). Use LearnModels with gold samples when available; the generic
// models are enough for well-structured sites and power the quickstart.
func GenericModels(c *Corpus) *Models { return rank.GenericScorer() }

// Options configures Learn.
type Options struct {
	// Variant selects the ranking components (default VariantNTW).
	Variant rank.Variant
	// Enumerator selects the wrapper-space enumeration algorithm
	// (default EnumTopDown; EnumBottomUp works for any well-behaved
	// blackbox inductor).
	Enumerator string
	// MaxEnumCalls bounds enumeration effort.
	MaxEnumCalls int64
	// ScoreWorkers fans the candidate-ranking loop out over that many
	// goroutines with results identical to the serial path. Parallel
	// scoring is opt-in (<= 1 stays serial); pass runtime.GOMAXPROCS(0)
	// to saturate the machine from a single site. Prefer batch-level
	// parallelism (LearnBatch) when learning many sites.
	ScoreWorkers int
}

// Learn runs noise-tolerant wrapper induction: enumerate the wrapper space
// of the labels, rank by P(L|X)·P(X), return the ranked candidates.
func Learn(ind Inductor, labels *NodeSet, m *Models, opt Options) (*Result, error) {
	return core.Learn(ind, labels, NewLearnConfig(m, opt))
}

// NewLearnConfig builds a BatchSite's learning configuration from ranking
// models and the same Options Learn takes.
func NewLearnConfig(m *Models, opt Options) LearnConfig {
	return LearnConfig{
		Enumerator:   opt.Enumerator,
		EnumOptions:  enum.Options{MaxCalls: opt.MaxEnumCalls},
		Scorer:       m,
		Variant:      opt.Variant,
		ScoreWorkers: opt.ScoreWorkers,
	}
}

// LearnBatch learns N sites concurrently on a bounded worker pool — the
// paper's deployment shape (Yahoo!-scale extraction runs the single-site
// pipeline over hundreds of independent sites). Every site gets its own
// slot in the result: a failing or panicking site reports an error there
// without disturbing the batch, and per-site learning is byte-identical to
// calling Learn serially. Cancel ctx to stop at the next site boundary;
// partial results are returned alongside the context's error.
func LearnBatch(ctx context.Context, sites []BatchSite, opt BatchOptions) (*BatchResult, error) {
	return engine.LearnBatch(ctx, sites, opt)
}

// NaiveLearn is the baseline that trains the inductor directly on all the
// (noisy) labels — the paper's NAIVE. A single bad label typically makes it
// over-generalize grossly; it exists for comparison.
func NaiveLearn(ind Inductor, labels *NodeSet) (Wrapper, error) {
	return core.Naive(ind, labels)
}

// Extracted materializes a wrapper's extraction as page-grouped strings.
func Extracted(c *Corpus, w Wrapper) [][]string {
	out := make([][]string, len(c.Pages))
	w.Extract().ForEach(func(ord int) {
		p := c.PageOf(ord)
		out[p] = append(out[p], c.TextContent(ord))
	})
	return out
}

// --- Serving: compiled wrappers, the wrapper store, the extraction runtime ---

// Compile turns a learned wrapper into its portable, corpus-independent
// form: an xpath wrapper compiles its rule to an evaluable expression, an
// LR wrapper to a delimiter matcher over any page's character stream. The
// result applies to pages that did not exist at learning time — the
// paper's learn-once / extract-from-millions split.
func Compile(w Wrapper) (Portable, error) { return store.Compile(w) }

// MarshalWrapper renders a compiled wrapper in its stable, versioned JSON
// wire form.
func MarshalWrapper(p Portable) ([]byte, error) { return store.MarshalWrapper(p) }

// UnmarshalWrapper decodes and re-compiles a wrapper from its wire form —
// typically in a different process than the one that learned it.
func UnmarshalWrapper(data []byte) (Portable, error) { return store.UnmarshalWrapper(data) }

// ParsePage parses one HTML page for serving-time extraction. The parser
// is tolerant: any input produces a tree.
func ParsePage(html string) *Node { return htmlparse.Parse(html) }

// NewWrapperStore returns an empty versioned wrapper registry.
func NewWrapperStore() *WrapperStore { return store.New() }

// LoadWrapperStore reads a registry saved with WrapperStore.Save,
// validating every stored rule eagerly.
func LoadWrapperStore(path string) (*WrapperStore, error) { return store.Load(path) }

// StoreBatch records a LearnBatch run's winners in the store: one new
// version per successfully learned site. It returns how many sites were
// stored; compile failures are joined into err without blocking the rest.
func StoreBatch(s *WrapperStore, batch *BatchResult) (int, error) { return s.PutBatch(batch) }

// NewExtractor builds the extraction runtime serving one compiled
// wrapper: ExtractOne for a single page on the caller's goroutine, Run for
// index-aligned batches on a bounded worker pool, both with per-page error
// isolation and output independent of the worker count. Every completed
// page updates the extractor's lifetime Health counters and fires
// opt.OnResult, the tap a Monitor's SiteHealth.Observe hooks into.
func NewExtractor(p Portable, opt ExtractOptions) *Extractor { return extract.New(p, opt) }

// --- Maintenance: drift detection, automatic re-learning, promote/rollback ---

// NewMonitor builds the per-site drift monitor; zero HealthPolicy fields
// select defaults (window 32, trip after 8 pages at >50% empties, >50%
// failures, or mean records under 50% of the learn-time profile).
// Register each served site with its stored profile, wire the returned
// SiteHealth's Observe into the site's ExtractOptions.OnResult, and poll
// Monitor.Tripped (or install a hook with Monitor.SetOnTrip) to dispatch
// repairs.
func NewMonitor(policy HealthPolicy) *Monitor { return drift.NewMonitor(policy) }

// ProfileOf computes a wrapper's learn-time health profile: its per-page
// record counts over the corpus it was induced from. StoreBatch records
// profiles automatically; use this when storing wrappers one at a time via
// WrapperStore.Put.
func ProfileOf(c *Corpus, w Wrapper) *WrapperProfile {
	return store.ProfileOf(c.PerPageCounts(w.Extract()))
}
