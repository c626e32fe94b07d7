// Package lr implements the LR wrapper class of the WIEN system
// (Kushmerick et al. [15, 14]): a document is a character sequence and a
// wrapper is a pair of delimiter strings (l, r); induction finds the longest
// common string preceding and following the labeled examples.
//
// Following the paper's Sec. 5 analysis, LR is realized as a feature-based
// inductor: each text node carries attributes Lk (the k bytes immediately
// preceding it in the serialized page) and Rk (the k bytes following), for
// k up to MaxContext. Induction intersects those features — i.e. takes the
// longest common left suffix and right prefix — and extraction matches
// every text node whose context agrees. A classic character-span scanner
// (ExtractSpans) is also provided for the original WIEN semantics.
//
// Theorem 4: LR is well-behaved; the property tests verify this.
package lr

import (
	"fmt"
	"strings"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/textutil"
	"autowrap/internal/wrapper"
)

// DefaultMaxContext caps delimiter length in bytes. WIEN delimiters are
// short in practice; the cap bounds the feature space so that TopDown's
// attribute set stays finite. An ablation bench sweeps this value.
const DefaultMaxContext = 64

// Inductor is the LR wrapper inductor over one corpus.
type Inductor struct {
	c   *corpus.Corpus
	max int

	lefts  []string // ordinal -> up to max bytes preceding the node
	rights []string // ordinal -> up to max bytes following the node

	cache       map[string]*bitset.Set // delimiter pair -> extraction
	induceCalls int64
}

// Wrapper is an induced LR rule: the (left, right) delimiter pair.
type Wrapper struct {
	Left  string
	Right string
	out   *bitset.Set
}

// Extract implements wrapper.Wrapper.
func (w *Wrapper) Extract() *bitset.Set { return w.out }

// Rule implements wrapper.Wrapper.
func (w *Wrapper) Rule() string {
	return fmt.Sprintf("LR(%q, %q)", w.Left, w.Right)
}

// New builds the LR inductor. maxContext <= 0 selects DefaultMaxContext.
func New(c *corpus.Corpus, maxContext int) *Inductor {
	if maxContext <= 0 {
		maxContext = DefaultMaxContext
	}
	ind := &Inductor{
		c:      c,
		max:    maxContext,
		lefts:  make([]string, c.NumTexts()),
		rights: make([]string, c.NumTexts()),
		cache:  make(map[string]*bitset.Set),
	}
	ord := 0 // pages list their texts in ordinal order
	for _, p := range c.Pages {
		for _, span := range p.Spans {
			start, end := int(span[0]), int(span[1])
			lo := max(start-maxContext, 0)
			hi := min(end+maxContext, len(p.HTML))
			ind.lefts[ord] = p.HTML[lo:start]
			ind.rights[ord] = p.HTML[end:hi]
			ord++
		}
	}
	return ind
}

// Name implements wrapper.Inductor.
func (ind *Inductor) Name() string { return "lr" }

// Corpus implements wrapper.Inductor.
func (ind *Inductor) Corpus() *corpus.Corpus { return ind.c }

// MaxContext returns the delimiter length cap.
func (ind *Inductor) MaxContext() int { return ind.max }

// InduceCalls returns the number of Induce invocations (enumeration
// experiments report this counter).
func (ind *Inductor) InduceCalls() int64 { return ind.induceCalls }

// ResetInduceCalls zeroes the call counter.
func (ind *Inductor) ResetInduceCalls() { ind.induceCalls = 0 }

// Induce implements wrapper.Inductor: the learned delimiters are the longest
// common suffix of the labels' left contexts and the longest common prefix
// of their right contexts.
func (ind *Inductor) Induce(labels *bitset.Set) (wrapper.Wrapper, error) {
	ind.induceCalls++
	ords := labels.Indices()
	if len(ords) == 0 {
		return nil, fmt.Errorf("lr: cannot induce from an empty label set")
	}
	left := ind.lefts[ords[0]]
	right := ind.rights[ords[0]]
	for _, ord := range ords[1:] {
		if n := textutil.CommonSuffixLen(left, ind.lefts[ord]); n < len(left) {
			left = left[len(left)-n:]
		}
		if n := textutil.CommonPrefixLen(right, ind.rights[ord]); n < len(right) {
			right = right[:n]
		}
	}
	return &Wrapper{Left: left, Right: right, out: ind.extract(left, right)}, nil
}

func (ind *Inductor) extract(left, right string) *bitset.Set {
	key := left + "\x00" + right
	if out, ok := ind.cache[key]; ok {
		return out
	}
	out := ind.c.EmptySet()
	for ord := range ind.lefts {
		if strings.HasSuffix(ind.lefts[ord], left) && strings.HasPrefix(ind.rights[ord], right) {
			out.Add(ord)
		}
	}
	ind.cache[key] = out
	return out
}

// Attrs implements wrapper.FeatureInductor: the attributes are L1..Lb and
// R1..Rb for b = MaxContext, restricted to lengths that actually occur
// among the labels' contexts.
func (ind *Inductor) Attrs(labels *bitset.Set) []wrapper.Attr {
	maxL, maxR := 0, 0
	labels.ForEach(func(ord int) {
		if len(ind.lefts[ord]) > maxL {
			maxL = len(ind.lefts[ord])
		}
		if len(ind.rights[ord]) > maxR {
			maxR = len(ind.rights[ord])
		}
	})
	out := make([]wrapper.Attr, 0, maxL+maxR)
	for k := 1; k <= maxL; k++ {
		out = append(out, wrapper.Attr{Kind: "L", Pos: k})
	}
	for k := 1; k <= maxR; k++ {
		out = append(out, wrapper.Attr{Kind: "R", Pos: k})
	}
	return out
}

// Subdivide implements wrapper.FeatureInductor: group the nodes of s by
// their k-byte left (right) context. Nodes whose context is shorter than k
// lack the attribute and are omitted.
func (ind *Inductor) Subdivide(s *bitset.Set, a wrapper.Attr) []*bitset.Set {
	k := a.Pos
	if k <= 0 || (a.Kind != "L" && a.Kind != "R") {
		return nil
	}
	groups := make(map[string]*bitset.Set)
	var order []string
	s.ForEach(func(ord int) {
		var key string
		switch a.Kind {
		case "L":
			lc := ind.lefts[ord]
			if len(lc) < k {
				return
			}
			key = lc[len(lc)-k:]
		case "R":
			rc := ind.rights[ord]
			if len(rc) < k {
				return
			}
			key = rc[:k]
		}
		g, ok := groups[key]
		if !ok {
			g = ind.c.EmptySet()
			groups[key] = g
			order = append(order, key)
		}
		g.Add(ord)
	})
	out := make([]*bitset.Set, 0, len(order))
	for _, key := range order {
		out = append(out, groups[key])
	}
	return out
}

// Span is a character range extracted by the classic WIEN scanner.
type Span struct {
	Page  int
	Start int // byte offset of the content (after the left delimiter)
	End   int // byte offset just past the content
}

// ExtractSpans runs the original LR semantics over the serialized pages:
// scan for an occurrence of left, extract the minimal string up to the next
// occurrence of right, resume after it (Sec. 5: "all the minimal strings
// that are delimited by these pairs of strings"). Empty delimiters on both
// sides are rejected to avoid degenerate whole-document matches.
func ExtractSpans(c *corpus.Corpus, left, right string) ([]Span, error) {
	if left == "" && right == "" {
		return nil, fmt.Errorf("lr: both delimiters empty")
	}
	var out []Span
	for _, p := range c.Pages {
		pos := 0
		for {
			i := strings.Index(p.HTML[pos:], left)
			if i < 0 {
				break
			}
			start := pos + i + len(left)
			j := strings.Index(p.HTML[start:], right)
			if j < 0 {
				break
			}
			out = append(out, Span{Page: p.Index, Start: start, End: start + j})
			pos = start + j + len(right)
			if right == "" {
				pos = start + 1 // avoid an infinite loop on empty right
			}
		}
	}
	return out, nil
}

// SpanText resolves a span back to its text.
func SpanText(c *corpus.Corpus, s Span) string {
	return c.Pages[s.Page].HTML[s.Start:s.End]
}

var (
	_ wrapper.Inductor        = (*Inductor)(nil)
	_ wrapper.FeatureInductor = (*Inductor)(nil)
	_ wrapper.Wrapper         = (*Wrapper)(nil)
)
