package segment

import (
	"math/rand"
	"slices"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/gen"
	"autowrap/internal/textutil"
)

// refSegments and refCompute are Segments and Compute as they were before
// Compute cut only the segments it samples: every segment of every page,
// gathered into per-page slices first.
func refSegments(c *corpus.Corpus, x *bitset.Set, opt Options) [][]int32 {
	opt = opt.withDefaults()
	var segs [][]int32
	perPage := make([][]int, len(c.Pages))
	x.ForEach(func(ord int) {
		p := c.PageOf(ord)
		perPage[p] = append(perPage[p], c.IndexInPage(ord))
	})
	for pi, idxs := range perPage {
		page := c.Pages[pi]
		for i := 0; i+1 < len(idxs); i++ {
			start := page.TextPos[idxs[i]]
			end := page.TextPos[idxs[i+1]]
			if end <= start {
				continue
			}
			seg := page.Tokens[start:end]
			if len(seg) > opt.MaxSegmentTokens {
				seg = seg[:opt.MaxSegmentTokens]
			}
			segs = append(segs, seg)
		}
	}
	return segs
}

func refCompute(c *corpus.Corpus, x *bitset.Set, opt Options) (Features, bool) {
	opt = opt.withDefaults()
	segs := refSegments(c, x, opt)
	if len(segs) < 2 {
		return Features{NumSegments: len(segs)}, false
	}
	pairs := samplePairs(len(segs), opt.MaxPairs)
	var schemaSizes []int
	maxDist := 0
	for _, pr := range pairs {
		a, b := segs[pr[0]], segs[pr[1]]
		lcs := textutil.LongestCommonSubstring(a, b)
		schemaSizes = append(schemaSizes, countTextTokens(lcs))
		if d := textutil.EditDistanceCapped(a, b, opt.EditCap); d > maxDist {
			maxDist = d
		}
	}
	return Features{
		SchemaSize:  median(schemaSizes),
		Alignment:   maxDist,
		NumSegments: len(segs),
	}, true
}

// TestComputeMatchesReference: on generated sites of every dealer layout,
// for gold lists and random boundary sets from empty to dense, under the
// default options and tight ones, Compute and Segments agree with the
// reference — features, ok, and every segment.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := gen.BusinessPool(3, 600, 0.1)
	opts := []Options{{}, {MaxPairs: 1}, {MaxPairs: 3, MaxSegmentTokens: 4}, {MaxPairs: 1000, EditCap: 5}}
	checked := 0
	for seed := int64(0); seed < 10; seed++ {
		site, err := gen.DealerSite(gen.DealerConfig{Seed: seed, Pool: pool, NumPages: 2 + int(seed%4)})
		if err != nil {
			t.Fatal(err)
		}
		c := site.Corpus
		sets := []*bitset.Set{c.EmptySet(), c.FullSet()}
		for _, gold := range site.Gold {
			sets = append(sets, gold)
		}
		for _, density := range []float64{0.002, 0.01, 0.05, 0.2, 0.6} {
			x := c.EmptySet()
			for ord := 0; ord < c.NumTexts(); ord++ {
				if rng.Float64() < density {
					x.Add(ord)
				}
			}
			sets = append(sets, x)
		}
		for _, x := range sets {
			for _, opt := range opts {
				got, gotOK := Compute(c, x, opt)
				want, wantOK := refCompute(c, x, opt)
				if got != want || gotOK != wantOK {
					t.Fatalf("site %s, %d boundaries, %+v: Compute %+v %v, reference %+v %v",
						site.Name, x.Count(), opt, got, gotOK, want, wantOK)
				}
				segs, ref := Segments(c, x, opt), refSegments(c, x, opt)
				if len(segs) != len(ref) {
					t.Fatalf("site %s: %d segments, reference %d", site.Name, len(segs), len(ref))
				}
				for i := range segs {
					if !slices.Equal(segs[i], ref[i]) {
						t.Fatalf("site %s: segment %d differs from the reference", site.Name, i)
					}
				}
				checked++
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d cases checked", checked)
	}
}
