// Package xpinduct implements the XPATH wrapper inductor of Dalvi et al. [6]
// in the feature-based form the paper derives in Sec. 5: for each text node
// we look at the path from the node to the root and record, per position i
// (1 = the node's parent element), the tag name, the same-tag child number
// and every HTML attribute. Induction intersects the features of the
// labeled nodes; extraction matches every text node whose features contain
// that intersection. Theorem 5: this inductor is well-behaved.
package xpinduct

import (
	"sort"
	"strconv"
	"strings"

	"autowrap/internal/corpus"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpath"
)

// Options configures feature extraction.
type Options struct {
	// MaxDepth bounds how many ancestors contribute features; 0 means the
	// full path to the root. Bounding depth is an ablation knob, not a
	// paper parameter.
	MaxDepth int
	// IgnoreAttrs lists attribute keys excluded from features (e.g. style
	// junk). The defaults exclude nothing.
	IgnoreAttrs []string
}

// New builds the XPATH inductor over the corpus, reading each text node's
// ancestors off the corpus's element records: the parent element, its
// parent, and so on to the top of the document. An element's features are
// the same (kind, value) pairs — its tag, its child number, its HTML
// attributes — at whatever position below it a text node sits, so each
// element interns its pairs once, the first time a text node below it is
// met, and a text node reads its ancestors' feature ids from a dense table
// by position and pair: the feature map is consulted once per feature.
//
// Features are interned in the order a text-by-text, ancestor-by-ancestor
// construction first meets them (tag, child number, then the HTML attributes
// in source order) — the table misses exactly there — so feature ids, and
// with them Features(), Rule() and Extract() of every induced wrapper, do
// not depend on how the space was built.
func New(c *corpus.Corpus, opt Options) *wrapper.FeatureSpace {
	b := builder{
		c:        c,
		fs:       wrapper.NewFeatureSpace("xpath", c, renderRule),
		maxDepth: opt.MaxDepth,
		ignored:  make(map[string]bool, len(opt.IgnoreAttrs)),
		pairIDs:  []map[string]int32{{}, {}},
		kindIDs:  make(map[string]int32),
		kinds:    []string{"tag", "cn"},
	}
	for _, k := range opt.IgnoreAttrs {
		b.ignored[strings.ToLower(k)] = true
	}
	for i := range c.Pages {
		lo, hi := c.ElementRange(i)
		b.base = lo
		b.spans = append(b.spans[:0], make([][2]int32, hi-lo)...)
		b.pairs = b.pairs[:0] // no element of the page before holds them
		lo, hi = c.TextRange(i)
		for ord := lo; ord < hi; ord++ {
			b.text(ord)
		}
	}
	return b.fs
}

// Kinds of pair: an element's tag and child number; every other kind is an
// HTML attribute's.
const (
	kindTag = iota
	kindCN
)

// pair is an element's (kind, value) pair, a feature less its position.
type pair struct {
	kind int32
	val  string
}

// builder is the state of New's pass.
type builder struct {
	c        *corpus.Corpus
	fs       *wrapper.FeatureSpace
	maxDepth int
	ignored  map[string]bool

	// spans[e-base] is the range of pairs holding the pair ids of the
	// page's element e. The zero range has not been built: a built one
	// holds at least tag and child number.
	base  int
	spans [][2]int32
	pairs []int32 // the pair ids of the page's elements, back to back
	feats []int32 // one text node's features, reused

	// Pairs are interned to dense ids: pairIDs[kind] by value, but a child
	// number's by number, plus one (zero is not yet asked for), in cnPairs.
	// kinds names each kind as an Attr names it ("tag", "cn", "@" and the
	// attribute key); kindIDs finds an attribute key's kind.
	pairIDs []map[string]int32
	cnPairs []int32
	pairOf  []pair // pair id -> pair
	kinds   []string
	kindIDs map[string]int32
	// feat[pos-1][p] is the id, plus one, of pair p's feature at position
	// pos; zero while it is not interned. Every element interns a tag and a
	// child-number feature at each position it is met at, so those two
	// attributes' ids are kept by position in posAttrs.
	feat     [][]int32
	posAttrs [][2]int32
}

// text attaches to the text node with the given ordinal the features of
// its ancestors, from its parent element out.
func (b *builder) text(ord int) {
	b.feats = b.feats[:0]
	for e, pos := b.c.TextParent(ord), 1; e >= 0; e, pos = b.c.Element(e).Parent, pos+1 {
		if b.maxDepth > 0 && pos > b.maxDepth {
			break
		}
		b.features(e, pos)
	}
	b.fs.Attach(ord, b.feats)
}

// features appends to b.feats the features element e contributes at
// relative position pos, interning those the table does not hold yet.
func (b *builder) features(e, pos int) {
	span := &b.spans[e-b.base]
	if span[1] == 0 {
		b.internPairs(e, span)
	}
	for len(b.feat) < pos {
		at := len(b.feat) + 1
		b.posAttrs = append(b.posAttrs, [2]int32{
			b.fs.AttrID(wrapper.Attr{Kind: "tag", Pos: at}),
			b.fs.AttrID(wrapper.Attr{Kind: "cn", Pos: at}),
		})
		b.feat = append(b.feat, nil)
	}
	row := b.feat[pos-1]
	if len(row) < len(b.pairOf) {
		row = append(row, make([]int32, len(b.pairOf)-len(row))...)
		b.feat[pos-1] = row
	}
	for _, p := range b.pairs[span[0]:span[1]] {
		if row[p] == 0 {
			row[p] = b.intern(p, pos) + 1
		}
		b.feats = append(b.feats, row[p]-1)
	}
}

// intern interns pair p's feature at position pos.
func (b *builder) intern(p int32, pos int) int32 {
	pr := b.pairOf[p]
	var aid int32
	switch pr.kind {
	case kindTag, kindCN:
		aid = b.posAttrs[pos-1][pr.kind]
	default:
		aid = b.fs.AttrID(wrapper.Attr{Kind: b.kinds[pr.kind], Pos: pos})
	}
	return b.fs.FeatureOf(aid, pr.val)
}

// internPairs interns element e's pairs, in the order its features are
// named — tag, child number, then the attributes in source order — and
// records their range in b.pairs.
func (b *builder) internPairs(e int, span *[2]int32) {
	start := len(b.pairs)
	el := b.c.Element(e)
	b.pairs = append(b.pairs, b.pairID(kindTag, el.Tag))
	cn := el.ChildNumber
	if cn >= len(b.cnPairs) {
		b.cnPairs = append(b.cnPairs, make([]int32, cn+1-len(b.cnPairs))...)
	}
	if b.cnPairs[cn] == 0 {
		b.cnPairs[cn] = b.pairID(kindCN, strconv.Itoa(cn)) + 1
	}
	b.pairs = append(b.pairs, b.cnPairs[cn]-1)
	for _, a := range b.c.Attrs(e) {
		if b.ignored[a.Key] {
			continue
		}
		kind, ok := b.kindIDs[a.Key]
		if !ok {
			kind = int32(len(b.kinds))
			b.kindIDs[a.Key] = kind
			b.kinds = append(b.kinds, "@"+a.Key)
			b.pairIDs = append(b.pairIDs, map[string]int32{})
		}
		b.pairs = append(b.pairs, b.pairID(kind, a.Val))
	}
	*span = [2]int32{int32(start), int32(len(b.pairs))}
}

// pairID interns the pair (kind, val).
func (b *builder) pairID(kind int32, val string) int32 {
	id, ok := b.pairIDs[kind][val]
	if !ok {
		id = int32(len(b.pairOf))
		b.pairIDs[kind][val] = id
		b.pairOf = append(b.pairOf, pair{kind, val})
	}
	return id
}

// renderRule converts an intersected feature set into the equivalent xpath
// expression (illustrated by Equation (3) in the paper). Positions count
// upward from the labeled text node's parent; position gaps render as '*'
// steps so the expression's semantics match the feature semantics exactly.
func renderRule(fs *wrapper.FeatureSpace, featIDs []int32) string {
	if len(featIDs) == 0 {
		return "//text()"
	}
	type stepInfo struct {
		tag   string
		cn    int
		attrs [][2]string
	}
	byPos := make(map[int]*stepInfo)
	maxPos := 0
	for _, fid := range featIDs {
		a := fs.FeatureAttr(fid)
		v := fs.FeatureValue(fid)
		si := byPos[a.Pos]
		if si == nil {
			si = &stepInfo{tag: "*"}
			byPos[a.Pos] = si
		}
		if a.Pos > maxPos {
			maxPos = a.Pos
		}
		switch {
		case a.Kind == "tag":
			si.tag = v
		case a.Kind == "cn":
			si.cn, _ = strconv.Atoi(v)
		case strings.HasPrefix(a.Kind, "@"):
			si.attrs = append(si.attrs, [2]string{a.Kind[1:], v})
		}
	}
	var sb strings.Builder
	for pos := maxPos; pos >= 1; pos-- {
		if pos == maxPos {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		si := byPos[pos]
		if si == nil {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(si.tag)
		if si.cn > 0 {
			sb.WriteString("[")
			sb.WriteString(strconv.Itoa(si.cn))
			sb.WriteString("]")
		}
		sort.Slice(si.attrs, func(i, j int) bool { return si.attrs[i][0] < si.attrs[j][0] })
		for _, kv := range si.attrs {
			sb.WriteString("[@")
			sb.WriteString(kv[0])
			sb.WriteString("=")
			sb.WriteString(xpath.Quote(kv[1]))
			sb.WriteString("]")
		}
	}
	sb.WriteString("/text()")
	return sb.String()
}

// RuleExpr parses the rendered rule of a wrapper produced by this inductor.
// It exists so integration tests can verify that the rendered xpath
// evaluates to exactly the wrapper's extraction.
func RuleExpr(w wrapper.Wrapper) (*xpath.Expr, error) {
	return xpath.Parse(w.Rule())
}
