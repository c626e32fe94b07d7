// Package multitype implements the multi-type extraction of the paper's
// Appendix A: jointly learning wrappers for several types (e.g. business
// name and zipcode) and assembling records from the interleaved extractions.
//
// Enumeration reuses the single-type machinery per type. Ranking extends
// Sec. 6: P(L|X) multiplies the per-type annotation likelihoods, and P(X)
// segments the pages using one type as the record boundary while replacing
// each typed node with a type-tagged token, which enforces the appendix's
// constraint that "nodes corresponding to each type align with each other".
// A candidate whose extractions cannot be assembled into records (a name
// with zero or several zipcodes before the next name) produces empty
// results on that page, mirroring the appendix's inductor.
package multitype

import (
	"fmt"
	"math"
	"sort"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/enum"
	"autowrap/internal/rank"
	"autowrap/internal/stats"
	"autowrap/internal/textutil"
	"autowrap/internal/wrapper"
)

// Type is one extraction target.
type Type struct {
	Name string
	// Inductor learns wrappers for this type (typically xpinduct over the
	// shared corpus).
	Inductor wrapper.Inductor
	// Labels are this type's noisy annotations.
	Labels *bitset.Set
	// Ann is this type's annotation model.
	Ann rank.AnnotationModel
}

// Record is one assembled tuple: the text-node ordinal per type, indexed
// like the Types slice. -1 marks a missing field (never produced by the
// strict assembler, reserved for extensions).
type Record []int

// Config controls joint learning.
type Config struct {
	Enumerator  string
	EnumOptions enum.Options
	// TopPerType bounds the per-type candidates entering the joint
	// ranking, keeping the cross product tractable. Candidates are
	// pre-ranked by their single-type NTW score. Default 8.
	TopPerType int
	// Pub is the learned publication model (shared across types).
	Pub *rank.PublicationModel
	// AssemblyFailurePenalty is added per page whose extraction cannot be
	// assembled. Default 2·ln(KDE floor) per failed page.
	AssemblyFailurePenalty float64
}

// Candidate is one joint wrapper assignment.
type Candidate struct {
	Wrappers []wrapper.Wrapper // parallel to Types
	Records  []Record
	// PagesFailed counts pages where assembly failed (they contribute no
	// records).
	PagesFailed int
	Score       float64
}

// Result of a joint run.
type Result struct {
	Best       *Candidate
	Candidates []Candidate
	EnumCalls  int64
}

// Learn runs the joint noise-tolerant induction.
func Learn(c *corpus.Corpus, types []Type, cfg Config) (*Result, error) {
	if len(types) < 2 {
		return nil, fmt.Errorf("multitype: need at least two types, got %d", len(types))
	}
	if cfg.Pub == nil {
		return nil, fmt.Errorf("multitype: Config.Pub is required")
	}
	if cfg.TopPerType <= 0 {
		cfg.TopPerType = 8
	}
	if cfg.AssemblyFailurePenalty == 0 {
		cfg.AssemblyFailurePenalty = 2 * math.Log(stats.DefaultFloor)
	}
	algo := cfg.Enumerator
	if algo == "" {
		algo = enum.AlgoTopDown
	}

	res := &Result{}
	perType := make([][]wrapper.Wrapper, len(types))
	for ti, tp := range types {
		if tp.Labels.Empty() {
			return res, nil // cannot learn this type at all
		}
		enumRes, err := enum.Run(algo, tp.Inductor, tp.Labels, cfg.EnumOptions)
		if err != nil {
			return nil, fmt.Errorf("multitype: enumerating %s: %w", tp.Name, err)
		}
		res.EnumCalls += enumRes.Calls
		// Pre-rank this type's wrapper space by its own annotation score
		// plus the (untyped) publication prior, then keep the top slice.
		scorer := rank.Scorer{Ann: tp.Ann, Pub: cfg.Pub}
		type scored struct {
			w wrapper.Wrapper
			s float64
		}
		var ranked []scored
		for _, it := range enumRes.Items {
			sc := scorer.Score(c, tp.Labels, it.Wrapper.Extract(), rank.NTW)
			ranked = append(ranked, scored{it.Wrapper, sc.Total})
		}
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].s > ranked[j].s })
		n := cfg.TopPerType
		if n > len(ranked) {
			n = len(ranked)
		}
		for _, r := range ranked[:n] {
			perType[ti] = append(perType[ti], r.w)
		}
	}

	// Joint ranking over the cross product of the per-type shortlists.
	var walk func(ti int, pick []wrapper.Wrapper)
	walk = func(ti int, pick []wrapper.Wrapper) {
		if ti == len(types) {
			cand := evaluate(c, types, pick, cfg)
			res.Candidates = append(res.Candidates, cand)
			return
		}
		for _, w := range perType[ti] {
			walk(ti+1, append(pick, w))
		}
	}
	walk(0, make([]wrapper.Wrapper, 0, len(types)))

	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return res.Candidates[i].Score > res.Candidates[j].Score
	})
	if len(res.Candidates) > 0 {
		res.Best = &res.Candidates[0]
	}
	return res, nil
}

// evaluate scores one joint assignment and assembles its records.
func evaluate(c *corpus.Corpus, types []Type, pick []wrapper.Wrapper, cfg Config) Candidate {
	cand := Candidate{Wrappers: append([]wrapper.Wrapper(nil), pick...)}
	score := 0.0
	for ti, tp := range types {
		score += tp.Ann.LogLikelihood(tp.Labels, pick[ti].Extract())
	}
	// Typed publication prior: segment by the first type's boundaries over
	// token sequences where each extracted node is replaced by a
	// type-tagged token.
	segs := typedSegments(c, types, pick, cfg.Pub.Seg.MaxSegmentTokens)
	if len(segs) < 2 {
		score += rank.NoListLogPrior
	} else {
		feats := typedFeatures(segs, cfg.Pub.Seg.MaxPairs, cfg.Pub.Seg.EditCap)
		score += cfg.Pub.Schema.LogProb(feats.schema) + cfg.Pub.Align.LogProb(feats.align)
	}
	cand.Records, cand.PagesFailed = Assemble(c, types, pick)
	score += float64(cand.PagesFailed) * cfg.AssemblyFailurePenalty
	cand.Score = score
	return cand
}

// typedToken returns the token id standing for a node of type ti; negative
// ids cannot collide with interned tag ids.
func typedToken(ti int) int32 { return int32(-(ti + 1)) }

// typedSegments builds record segments bounded by the first type's nodes,
// with type members replaced by typed tokens.
func typedSegments(c *corpus.Corpus, types []Type, pick []wrapper.Wrapper, maxTokens int) [][]int32 {
	if maxTokens <= 0 {
		maxTokens = 300
	}
	// typeOf maps ordinal -> type index (first match wins).
	typeOf := make(map[int]int)
	for ti := len(types) - 1; ti >= 0; ti-- {
		pick[ti].Extract().ForEach(func(ord int) { typeOf[ord] = ti })
	}
	var segs [][]int32
	for pi, page := range c.Pages {
		// Boundary positions: first type's members on this page.
		var bounds []int
		pick[0].Extract().ForEach(func(ord int) {
			if c.PageOf(ord) == pi {
				bounds = append(bounds, c.IndexInPage(ord))
			}
		})
		if len(bounds) < 2 {
			continue
		}
		// Typed copy of this page's token stream.
		toks := append([]int32(nil), page.Tokens...)
		first, _ := c.TextRange(pi)
		for i, pos := range page.TextPos {
			if ti, ok := typeOf[first+i]; ok {
				toks[pos] = typedToken(ti)
			}
		}
		for i := 0; i+1 < len(bounds); i++ {
			start := page.TextPos[bounds[i]]
			end := page.TextPos[bounds[i+1]]
			if end <= start {
				continue
			}
			seg := toks[start:end]
			if len(seg) > maxTokens {
				seg = seg[:maxTokens]
			}
			segs = append(segs, seg)
		}
	}
	return segs
}

type featPair struct{ schema, align int }

func typedFeatures(segs [][]int32, maxPairs, editCap int) featPair {
	if maxPairs <= 0 {
		maxPairs = 25
	}
	if editCap <= 0 {
		editCap = 200
	}
	var schemaVals []int
	maxDist := 0
	count := 0
	for i := 0; i+1 < len(segs) && count < maxPairs; i++ {
		a, b := segs[i], segs[i+1]
		lcs := textutil.LongestCommonSubstring(a, b)
		texts := 0
		for _, t := range lcs {
			if t <= corpus.TextTokenID { // #text or any typed token
				texts++
			}
		}
		schemaVals = append(schemaVals, texts)
		if d := textutil.EditDistanceCapped(a, b, editCap); d > maxDist {
			maxDist = d
		}
		count++
	}
	sort.Ints(schemaVals)
	return featPair{schema: schemaVals[len(schemaVals)/2], align: maxDist}
}

// Assemble builds records page by page: each node of type 0 opens a record;
// between it and the next type-0 node there must be exactly one node of
// every other type. A page violating this produces no records and counts as
// failed (the appendix: "the wrapper produces empty results on a page if it
// cannot assemble records successfully").
func Assemble(c *corpus.Corpus, types []Type, pick []wrapper.Wrapper) ([]Record, int) {
	var records []Record
	failed := 0
	for pi := range c.Pages {
		pageRecords, ok := assemblePage(c, types, pick, pi)
		if !ok {
			failed++
			continue
		}
		records = append(records, pageRecords...)
	}
	return records, failed
}

func assemblePage(c *corpus.Corpus, types []Type, pick []wrapper.Wrapper, pi int) ([]Record, bool) {
	type occ struct {
		pos int
		ti  int
		ord int
	}
	var seq []occ
	for ti := range types {
		pick[ti].Extract().ForEach(func(ord int) {
			if c.PageOf(ord) != pi {
				return
			}
			seq = append(seq, occ{pos: c.IndexInPage(ord), ti: ti, ord: ord})
		})
	}
	if len(seq) == 0 {
		return nil, true // an empty page is vacuously fine
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].pos < seq[j].pos })

	var records []Record
	var cur Record
	filled := 0
	flush := func() bool {
		if cur == nil {
			return true
		}
		if filled != len(types) {
			return false // missing fields
		}
		records = append(records, cur)
		return true
	}
	for _, o := range seq {
		if o.ti == 0 {
			if !flush() {
				return nil, false
			}
			cur = make(Record, len(types))
			for i := range cur {
				cur[i] = -1
			}
			cur[0] = o.ord
			filled = 1
			continue
		}
		if cur == nil {
			return nil, false // field before any record opener
		}
		if cur[o.ti] != -1 {
			return nil, false // duplicate field in one record
		}
		cur[o.ti] = o.ord
		filled++
	}
	if !flush() {
		return nil, false
	}
	return records, true
}
