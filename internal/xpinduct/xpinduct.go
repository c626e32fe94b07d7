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
	"autowrap/internal/dom"
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

// New builds the XPATH inductor over the corpus in one walk of each page
// with the stack of open nodes. Same-tag child numbers are counted as a
// parent's children go by, once per parent. An element's features are the
// same (kind, value) pairs — its tag, its child number, its HTML attributes
// — at whatever position below it a text node sits, so each element
// interns its pairs once, the first time a text node below it is met, and
// a text node reads its ancestors' feature ids from a dense table by
// position and pair: the feature map is consulted once per feature.
//
// Features are interned in the order a text-by-text, ancestor-by-ancestor
// construction first meets them (tag, child number, then the HTML attributes
// in source order) — the table misses exactly there — so feature ids, and
// with them Features(), Rule() and Extract() of every induced wrapper, do
// not depend on how the space was built.
func New(c *corpus.Corpus, opt Options) *wrapper.FeatureSpace {
	b := builder{
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
	for _, p := range c.Pages {
		b.visit(p.Root, 0)
		b.pairs = b.pairs[:0] // no node is open: nothing holds them
	}
	if b.ord != c.NumTexts() {
		panic("xpinduct: page trees changed since the corpus indexed them")
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

// builder is the state of New's walk.
type builder struct {
	fs       *wrapper.FeatureSpace
	maxDepth int
	ignored  map[string]bool

	// stack holds the open nodes, outermost first. Popped frames keep
	// their slices for the next node opened at that depth.
	stack []frame
	pairs []int32 // the pair ids of the page's nodes, back to back
	feats []int32 // one text node's features, reused
	ord   int     // ordinal of the next extractable text node

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

// frame is one open node.
type frame struct {
	n  *dom.Node
	cn int // same-tag child number; 0 for a root and for non-elements
	// counts tallies n's element children by tag as the walk passes them.
	counts dom.ChildCounter
	// pairs is the range of builder.pairs holding n's pair ids. The zero
	// range has not been built: a built one holds at least tag and child
	// number.
	pairs [2]int
}

// visit walks the subtree of n in document order — the order the corpus
// numbered its text nodes in.
func (b *builder) visit(n *dom.Node, cn int) {
	if corpus.IsExtractableText(n) {
		b.text(n)
	}
	if len(n.Children) == 0 {
		return
	}
	at := len(b.stack)
	if at == cap(b.stack) {
		b.stack = append(b.stack, frame{})
	}
	b.stack = b.stack[:at+1]
	f := &b.stack[at]
	f.n, f.cn, f.pairs = n, cn, [2]int{}
	f.counts.Reset()
	for _, ch := range n.Children {
		k := 0
		if ch.Type == dom.ElementNode {
			k = b.stack[at].counts.Next(ch.Tag)
		}
		b.visit(ch, k)
	}
	b.stack = b.stack[:at]
}

// text attaches to the next text node the features of its ancestors: the
// open nodes from the innermost out to, but excluding, the nearest document
// node.
func (b *builder) text(n *dom.Node) {
	if c := b.fs.Corpus(); b.ord >= c.NumTexts() || c.Text(b.ord) != n {
		panic("xpinduct: page trees changed since the corpus indexed them")
	}
	b.feats = b.feats[:0]
	for i, pos := len(b.stack)-1, 1; i >= 0 && b.stack[i].n.Type != dom.DocumentNode; i, pos = i-1, pos+1 {
		if b.maxDepth > 0 && pos > b.maxDepth {
			break
		}
		b.features(&b.stack[i], pos)
	}
	b.fs.Attach(b.ord, b.feats)
	b.ord++
}

// features appends to b.feats the features f's node contributes at
// relative position pos, interning those the table does not hold yet.
func (b *builder) features(f *frame, pos int) {
	if f.pairs[1] == 0 {
		b.internPairs(f)
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
	for _, p := range b.pairs[f.pairs[0]:f.pairs[1]] {
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

// internPairs interns f's node's pairs, in the order its features are
// named — tag, child number, then the attributes in source order — and
// records their range in b.pairs.
func (b *builder) internPairs(f *frame) {
	start := len(b.pairs)
	b.pairs = append(b.pairs, b.pairID(kindTag, f.n.Tag))
	if f.cn >= len(b.cnPairs) {
		b.cnPairs = append(b.cnPairs, make([]int32, f.cn+1-len(b.cnPairs))...)
	}
	if b.cnPairs[f.cn] == 0 {
		b.cnPairs[f.cn] = b.pairID(kindCN, strconv.Itoa(f.cn)) + 1
	}
	b.pairs = append(b.pairs, b.cnPairs[f.cn]-1)
	for _, a := range f.n.Attrs {
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
	f.pairs = [2]int{start, len(b.pairs)}
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
