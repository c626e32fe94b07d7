// Package core is the paper's primary contribution: the noise-tolerant
// wrapper (NTW) framework of Sec. 3. Given any well-behaved wrapper
// inductor φ and a set of noisy labels L, it (1) enumerates the wrapper
// space W(L) — every distinct wrapper some subset of L can produce — using
// the algorithms of Sec. 4, and (2) ranks the candidates by
// P(L | X)·P(X) (Sec. 6), returning the best one. The NAIVE baseline that
// runs φ directly on all of L is also provided, as are the NTW-L/NTW-X
// ranking ablations of Sec. 7.3.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/enum"
	"autowrap/internal/par"
	"autowrap/internal/rank"
	"autowrap/internal/wrapper"
)

// Config controls one NTW learning run.
type Config struct {
	// Enumerator is enum.AlgoTopDown (default; requires a feature-based
	// inductor), enum.AlgoBottomUp, or enum.AlgoNaive.
	Enumerator string
	// EnumOptions bounds the enumeration.
	EnumOptions enum.Options
	// Scorer holds the learned annotation and publication models.
	Scorer *rank.Scorer
	// Variant selects NTW, NTW-L, or NTW-X.
	Variant rank.Variant
	// ScoreWorkers fans candidate scoring out over a bounded goroutine
	// pool: each enumerated wrapper is scored independently, results land
	// in the candidate's own slot, and the final ranking sort is the same
	// stable sort as the serial path — so the Result is byte-identical
	// whatever the worker count. Parallel scoring is opt-in: <= 1 keeps
	// the serial loop, so zero-value configs nested under a site-level
	// pool (the engine, the experiment runners) don't oversubscribe the
	// host with workers × workers goroutines. Pass
	// runtime.GOMAXPROCS(0) to saturate a machine from a single site.
	ScoreWorkers int
}

func (cfg Config) scoreWorkers() int {
	if cfg.ScoreWorkers < 1 {
		return 1
	}
	return cfg.ScoreWorkers
}

func (cfg Config) enumerator() string {
	if cfg.Enumerator == "" {
		return enum.AlgoTopDown
	}
	return cfg.Enumerator
}

// Candidate is one ranked wrapper.
type Candidate struct {
	Wrapper wrapper.Wrapper
	// TrainedOn is the (closed) label subset that produced the wrapper.
	TrainedOn *bitset.Set
	Score     rank.Score
}

// Result of an NTW run.
type Result struct {
	// Best is the top-ranked candidate (nil only when L is empty).
	Best *Candidate
	// Candidates is the full ranked wrapper space, best first.
	Candidates []Candidate
	// EnumCalls is the number of inductor calls the enumeration made.
	EnumCalls int64
	// Enumerate and Rank are the wall-clock times of the run's two halves.
	Enumerate, Rank time.Duration
}

// Learn runs the generate-and-test framework: enumerate, score, rank.
func Learn(ind wrapper.Inductor, labels *bitset.Set, cfg Config) (*Result, error) {
	return LearnContext(context.Background(), ind, labels, cfg)
}

// LearnContext is Learn for a caller that may give up: once ctx is done it
// returns an error wrapping ctx.Err() at the next boundary — after
// enumeration, after ranking — instead of a result.
func LearnContext(ctx context.Context, ind wrapper.Inductor, labels *bitset.Set, cfg Config) (*Result, error) {
	if cfg.Scorer == nil {
		return nil, fmt.Errorf("core: Config.Scorer is required")
	}
	if labels.Empty() {
		return &Result{}, nil
	}
	c := ind.Corpus()
	start := time.Now()
	enumRes, err := enum.Run(cfg.enumerator(), ind, labels, cfg.EnumOptions)
	if err != nil {
		return nil, fmt.Errorf("core: enumeration failed: %w", err)
	}
	res := &Result{EnumCalls: enumRes.Calls, Enumerate: time.Since(start)}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: stopped after enumeration: %w", err)
	}
	// Scoring is the hot loop: every enumerated wrapper is scored against
	// the labels and the publication model (segmentation + KDE lookups),
	// and the candidates are independent — fan them out. Each goroutine
	// writes only its own index, so the merge is a no-op and the ordering
	// below sees exactly the slice the serial loop would build.
	items := enumRes.Items
	res.Candidates = make([]Candidate, len(items))
	par.For(len(items), cfg.scoreWorkers(), func(i int) {
		res.Candidates[i] = Candidate{
			Wrapper:   items[i].Wrapper,
			TrainedOn: items[i].Labels,
			Score:     cfg.Scorer.Score(c, labels, items[i].Wrapper.Extract(), cfg.Variant),
		}
	})
	sortCandidates(res.Candidates, labels)
	if len(res.Candidates) > 0 {
		res.Best = &res.Candidates[0]
	}
	res.Rank = time.Since(start) - res.Enumerate
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: stopped after ranking: %w", err)
	}
	return res, nil
}

// sortCandidates orders by total score, breaking ties deterministically:
// more covered labels, then smaller output, then output signature. Cover
// and size are computed once per candidate, not once per comparison; the
// signature, which only a tie on all three reads, on the first comparison
// that needs it.
func sortCandidates(cands []Candidate, labels *bitset.Set) {
	type keyed struct {
		Candidate
		cover, size int
		sig         uint64
		hasSig      bool
	}
	ks := make([]keyed, len(cands))
	for i, c := range cands {
		out := c.Wrapper.Extract()
		ks[i] = keyed{Candidate: c, cover: bitset.AndCount(labels, out), size: out.Count()}
	}
	sig := func(k *keyed) uint64 {
		if !k.hasSig {
			k.sig, k.hasSig = k.Wrapper.Extract().Signature(), true
		}
		return k.sig
	}
	sort.SliceStable(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.Score.Total != b.Score.Total {
			return a.Score.Total > b.Score.Total
		}
		if a.cover != b.cover {
			return a.cover > b.cover
		}
		if a.size != b.size {
			return a.size < b.size
		}
		return sig(a) < sig(b)
	})
	for i := range ks {
		cands[i] = ks[i].Candidate
	}
}

// Naive is the baseline of Sec. 7.2: run the inductor directly on the full
// (noisy) label set.
func Naive(ind wrapper.Inductor, labels *bitset.Set) (wrapper.Wrapper, error) {
	if labels.Empty() {
		return nil, fmt.Errorf("core: no labels to train on")
	}
	return ind.Induce(labels)
}

// Extraction is a convenience: the node set the learned wrapper extracts,
// or an empty set when learning produced nothing.
func (r *Result) Extraction(c *corpus.Corpus) *bitset.Set {
	if r.Best == nil {
		return c.EmptySet()
	}
	return r.Best.Wrapper.Extract()
}
