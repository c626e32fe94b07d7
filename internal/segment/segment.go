// Package segment implements the record segmentation of the paper's Sec. 6
// (illustrated in Fig. 7): the nodes of a candidate list X are used as
// record boundaries, and each segment is the preorder token sequence from
// one element of X up to (but excluding) the next. Segments may be
// cyclically shifted relative to true records — e.g. boundaries at names in
// "a1 n1 z1 p1 a2 n2 z2 p2" yield (n1 z1 p1 a2), (n2 z2 p2 ...) — but their
// structural similarity is preserved, which is all the ranking model needs.
package segment

import (
	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/textutil"
)

// Options bounds the feature computation.
type Options struct {
	// MaxSegmentTokens truncates very long segments (degenerate wrappers
	// can span whole pages). Default 300.
	MaxSegmentTokens int
	// MaxPairs bounds how many segment pairs contribute to the features.
	// Default 25.
	MaxPairs int
	// EditCap caps the edit-distance computation. Default 200.
	EditCap int
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentTokens <= 0 {
		o.MaxSegmentTokens = 300
	}
	if o.MaxPairs <= 0 {
		o.MaxPairs = 25
	}
	if o.EditCap <= 0 {
		o.EditCap = 200
	}
	return o
}

// Segments computes the record segments induced by boundary set x. Segments
// never cross page boundaries; a page containing fewer than two boundary
// nodes contributes none.
func Segments(c *corpus.Corpus, x *bitset.Set, opt Options) [][]int32 {
	segs, _ := cut(c, x, opt.withDefaults(), -1)
	return segs
}

// cut counts the record segments x induces and builds the first limit of
// them (all of them for a negative limit), in one pass over x. Ordinals are
// numbered page by page, so consecutive members of x on one page bound a
// segment and a page change starts the next page's run.
func cut(c *corpus.Corpus, x *bitset.Set, opt Options, limit int) (segs [][]int32, n int) {
	prevPage, prevPos := -1, int32(0)
	x.ForEach(func(ord int) {
		pi := c.PageOf(ord)
		page := c.Pages[pi]
		pos := page.TextPos[c.IndexInPage(ord)]
		if pi == prevPage && pos > prevPos {
			if limit < 0 || n < limit {
				seg := page.Tokens[prevPos:pos]
				segs = append(segs, seg[:min(len(seg), opt.MaxSegmentTokens)])
			}
			n++
		}
		prevPage, prevPos = pi, pos
	})
	return segs, n
}

// Features are the two list-goodness measures of Sec. 6.1.
type Features struct {
	// SchemaSize approximates the number of text attributes per record:
	// the number of #text tokens in the longest common substring between
	// pairs of segments (aggregated as the median over sampled pairs).
	SchemaSize int
	// Alignment measures how well records align: the maximum pairwise edit
	// distance between sampled segments (0 for a perfect list).
	Alignment int
	// NumSegments is the total number of record segments.
	NumSegments int
}

// Compute derives the features of the list x. ok is false when x induces
// fewer than two segments, in which case the features are undefined and the
// publication model must fall back to a penalty.
//
// samplePairs takes adjacent pairs first, so of more than MaxPairs+1
// segments it reads the first MaxPairs+1 only: those are all Compute cuts,
// while it counts the rest.
func Compute(c *corpus.Corpus, x *bitset.Set, opt Options) (Features, bool) {
	opt = opt.withDefaults()
	segs, n := cut(c, x, opt, opt.MaxPairs+1)
	if n < 2 {
		return Features{NumSegments: n}, false
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
		NumSegments: n,
	}, true
}

// samplePairs deterministically picks up to max index pairs: all adjacent
// pairs first (they capture record-to-record drift), then wider strides for
// cross-page comparisons.
func samplePairs(n, max int) [][2]int {
	var out [][2]int
	for i := 0; i+1 < n && len(out) < max; i++ {
		out = append(out, [2]int{i, i + 1})
	}
	for stride := 2; stride < n && len(out) < max; stride *= 2 {
		for i := 0; i+stride < n && len(out) < max; i += stride {
			out = append(out, [2]int{i, i + stride})
		}
	}
	return out
}

func countTextTokens(seg []int32) int {
	c := 0
	for _, t := range seg {
		if t == corpus.TextTokenID {
			c++
		}
	}
	return c
}

func median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	return s[len(s)/2]
}
