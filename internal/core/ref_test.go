package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/enum"
	"autowrap/internal/gen"
	"autowrap/internal/lr"
	"autowrap/internal/rank"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// refRank is the ranking half of Learn as it was written before the sort
// keys were hoisted: score the enumerated wrappers one after another, then
// stable-sort with a comparator that recomputes cover, size and signature
// on every comparison. (The enumeration half has its own reference in
// internal/enum, order of items included.)
func refRank(ind wrapper.Inductor, labels *bitset.Set, cfg Config) ([]Candidate, error) {
	enumRes, err := enum.Run(cfg.enumerator(), ind, labels, cfg.EnumOptions)
	if err != nil {
		return nil, err
	}
	cands := make([]Candidate, len(enumRes.Items))
	for i, it := range enumRes.Items {
		cands[i] = Candidate{
			Wrapper:   it.Wrapper,
			TrainedOn: it.Labels,
			Score:     cfg.Scorer.Score(ind.Corpus(), labels, it.Wrapper.Extract(), cfg.Variant),
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Score.Total != b.Score.Total {
			return a.Score.Total > b.Score.Total
		}
		ca := bitset.AndCount(labels, a.Wrapper.Extract())
		cb := bitset.AndCount(labels, b.Wrapper.Extract())
		if ca != cb {
			return ca > cb
		}
		na, nb := a.Wrapper.Extract().Count(), b.Wrapper.Extract().Count()
		if na != nb {
			return na < nb
		}
		return a.Wrapper.Extract().Signature() < b.Wrapper.Extract().Signature()
	})
	return cands, nil
}

// TestLearnRanksLikeReference: the full ranked wrapper space — rule, score,
// training subset, order — for XPATH and LR over dealer sites at every drift
// step, under all three ranking variants (NTW-L and NTW-X tie often, which
// is where the tie-breaks decide) and with scoring fanned out.
func TestLearnRanksLikeReference(t *testing.T) {
	pool := gen.BusinessPool(21, 600, 0)
	rng := rand.New(rand.NewSource(22))
	for seed := int64(700); seed < 705; seed++ {
		for drift := 0; drift <= 3; drift++ {
			site, err := gen.DealerSite(gen.DealerConfig{
				Seed: seed, Pool: pool, NumPages: 6, MinRecords: 8, MaxRecords: 20, Drift: drift})
			if err != nil {
				t.Fatal(err)
			}
			c, gold := site.Corpus, site.Gold["name"]
			labels := c.EmptySet()
			gold.ForEach(func(ord int) {
				if rng.Float64() < 0.3 {
					labels.Add(ord)
				}
			})
			for i := 0; i < 4; i++ {
				labels.Add(rng.Intn(c.NumTexts()))
			}
			scorer := scorerFor(t, c, gold)
			for _, ind := range []wrapper.Inductor{xpinduct.New(c, xpinduct.Options{}), lr.New(c, 0)} {
				for _, variant := range []rank.Variant{rank.NTW, rank.NTWL, rank.NTWX} {
					name := fmt.Sprintf("%s drift %d %s %v", site.Name, drift, ind.Name(), variant)
					cfg := Config{Scorer: scorer, Variant: variant, ScoreWorkers: 1 + int(seed%3)}
					want, err := refRank(ind, labels, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Learn(ind, labels, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Candidates) != len(want) || len(want) == 0 {
						t.Fatalf("%s: %d candidates, reference %d", name, len(res.Candidates), len(want))
					}
					for i, w := range want {
						g := res.Candidates[i]
						if g.Wrapper.Rule() != w.Wrapper.Rule() || g.Score != w.Score ||
							!g.TrainedOn.Equal(w.TrainedOn) || !g.Wrapper.Extract().Equal(w.Wrapper.Extract()) {
							t.Fatalf("%s: rank %d is %s (%v), reference %s (%v)",
								name, i, g.Wrapper.Rule(), g.Score, w.Wrapper.Rule(), w.Score)
						}
					}
					if res.Best.Wrapper.Rule() != want[0].Wrapper.Rule() {
						t.Fatalf("%s: best is %s, reference %s", name, res.Best.Wrapper.Rule(), want[0].Wrapper.Rule())
					}
				}
			}
		}
	}
}

// fixedWrapper is a wrapper that is only its extraction.
type fixedWrapper struct{ out *bitset.Set }

func (w fixedWrapper) Extract() *bitset.Set { return w.out }
func (w fixedWrapper) Rule() string         { return fmt.Sprint(w.out.Indices()) }

// eagerSort is sortCandidates as it was before the signature became lazy:
// cover, size and signature all computed up front, once a candidate.
func eagerSort(cands []Candidate, labels *bitset.Set) {
	type keyed struct {
		Candidate
		cover, size int
		sig         uint64
	}
	ks := make([]keyed, len(cands))
	for i, c := range cands {
		out := c.Wrapper.Extract()
		ks[i] = keyed{c, bitset.AndCount(labels, out), out.Count(), out.Signature()}
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
		return a.sig < b.sig
	})
	for i := range ks {
		cands[i] = ks[i].Candidate
	}
}

// TestSortCandidatesMatchesEagerKeys: candidates that tie on score, on
// cover and on size in every combination — few scores, few sizes, and
// duplicate extractions — order as they did with every key computed up
// front.
func TestSortCandidatesMatchesEagerKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const universe = 150
	labels := bitset.New(universe)
	for i := 0; i < universe; i += 3 {
		labels.Add(i)
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		cands := make([]Candidate, n)
		for i := range cands {
			out := bitset.New(universe)
			for k := 1 + rng.Intn(4); k > 0; k-- {
				out.Add(rng.Intn(12) * (1 + rng.Intn(2)))
			}
			if i > 0 && rng.Intn(5) == 0 {
				out = cands[rng.Intn(i)].Wrapper.Extract().Clone()
			}
			cands[i] = Candidate{Wrapper: fixedWrapper{out}, Score: rank.Score{Total: float64(rng.Intn(3))}}
		}
		lazy, eager := slices.Clone(cands), slices.Clone(cands)
		sortCandidates(lazy, labels)
		eagerSort(eager, labels)
		for i := range lazy {
			if lazy[i].Wrapper != eager[i].Wrapper {
				t.Fatalf("trial %d: rank %d is %s, eagerly keyed %s", trial, i, lazy[i].Wrapper.Rule(), eager[i].Wrapper.Rule())
			}
		}
	}
}
