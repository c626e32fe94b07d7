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
// parent's children go by, once per parent. A node contributes the same
// features to every text node pos levels below it, so it interns them the
// first time such a text node is met and remembers the ids: the feature map
// is consulted per (node, pos), and a text node costs a copy of its
// ancestors' remembered ids.
//
// Features are interned in the order a text-by-text, ancestor-by-ancestor
// construction first meets them (tag, child number, then the HTML attributes
// in source order), so feature ids — and with them Features(), Rule() and
// Extract() of every induced wrapper — do not depend on how the space was
// built.
func New(c *corpus.Corpus, opt Options) *wrapper.FeatureSpace {
	b := builder{
		fs:       wrapper.NewFeatureSpace("xpath", c, renderRule),
		maxDepth: opt.MaxDepth,
		ignored:  make(map[string]bool, len(opt.IgnoreAttrs)),
	}
	for _, k := range opt.IgnoreAttrs {
		b.ignored[strings.ToLower(k)] = true
	}
	for _, p := range c.Pages {
		b.visit(p.Root, 0)
		b.ids = b.ids[:0] // no node is open: nothing remembers them
	}
	if b.ord != c.NumTexts() {
		panic("xpinduct: page trees changed since the corpus indexed them")
	}
	b.fs.Seal()
	return b.fs
}

// builder is the state of New's walk.
type builder struct {
	fs       *wrapper.FeatureSpace
	maxDepth int
	ignored  map[string]bool

	// stack holds the open nodes, outermost first. Popped frames keep
	// their slices for the next node opened at that depth.
	stack []frame
	ids   []int32 // the feature ids open nodes remember, back to back
	feats []int32 // one text node's features, reused
	ord   int     // ordinal of the next extractable text node

	// Every node interns a tag and a child-number feature at each position
	// it is met at, so those attributes' ids are kept by position, and the
	// child-number features' ids by position and number, plus one (zero
	// is not yet asked for).
	posAttrs [][2]int32
	posCNs   [][]int32
}

// frame is one open node.
type frame struct {
	n  *dom.Node
	cn int // same-tag child number; 0 for a root and for non-elements
	// counts tallies n's element children by tag as the walk passes them.
	counts dom.ChildCounter
	// memo[pos-1] is the range of builder.ids holding the features n
	// contributes as a text node's pos-th ancestor. The zero range has not
	// been built: a built one holds at least tag and child number.
	memo [][2]int
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
	f.n, f.cn, f.memo = n, cn, f.memo[:0]
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
		m := b.features(&b.stack[i], pos)
		b.feats = append(b.feats, b.ids[m[0]:m[1]]...)
	}
	b.fs.Attach(b.ord, b.feats)
	b.ord++
}

// features returns the range of b.ids holding the features f's node
// contributes at relative position pos, interning them on first use.
func (b *builder) features(f *frame, pos int) [2]int {
	for len(f.memo) < pos {
		f.memo = append(f.memo, [2]int{})
	}
	if f.memo[pos-1][1] == 0 {
		start := len(b.ids)
		for len(b.posAttrs) < pos {
			at := len(b.posAttrs) + 1
			b.posAttrs = append(b.posAttrs, [2]int32{
				b.fs.AttrID(wrapper.Attr{Kind: "tag", Pos: at}),
				b.fs.AttrID(wrapper.Attr{Kind: "cn", Pos: at}),
			})
			b.posCNs = append(b.posCNs, nil)
		}
		attrs, cns := b.posAttrs[pos-1], &b.posCNs[pos-1]
		b.ids = append(b.ids, b.fs.FeatureOf(attrs[0], f.n.Tag))
		if f.cn >= len(*cns) {
			*cns = append(*cns, make([]int32, f.cn+1-len(*cns))...)
		}
		if (*cns)[f.cn] == 0 {
			(*cns)[f.cn] = b.fs.FeatureOf(attrs[1], strconv.Itoa(f.cn)) + 1
		}
		b.ids = append(b.ids, (*cns)[f.cn]-1)
		for _, a := range f.n.Attrs {
			if !b.ignored[a.Key] {
				b.intern(wrapper.Attr{Kind: "@" + a.Key, Pos: pos}, a.Val)
			}
		}
		f.memo[pos-1] = [2]int{start, len(b.ids)}
	}
	return f.memo[pos-1]
}

func (b *builder) intern(a wrapper.Attr, value string) {
	b.ids = append(b.ids, b.fs.FeatureID(a, value))
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
