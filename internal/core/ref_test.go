package core

import (
	"fmt"
	"math/rand"
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
