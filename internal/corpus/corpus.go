// Package corpus represents a website as the set of structurally similar
// pages a rendering script generated (paper Sec. 2.1). It assigns every
// extractable text node a global ordinal so inductors, enumerators and the
// ranking model can treat label sets and wrapper outputs as bitsets.
package corpus

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"autowrap/internal/bitset"
	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
)

// Page is one parsed webpage of a site.
type Page struct {
	Index int       // position within the corpus
	Root  *dom.Node // document root

	// HTML is the canonical serialization of Root. The LR inductor works
	// on this string.
	HTML string

	// Texts are the extractable (non-whitespace) text nodes in preorder.
	// Spans is aligned with it: Texts[i]'s escaped content is
	// HTML[Spans[i][0]:Spans[i][1]].
	Texts []*dom.Node
	Spans [][2]int

	// Tokens is the page's preorder tag-token sequence (text nodes appear
	// as the interned "#text" token); TextPos[i] is the position of
	// Texts[i] inside Tokens. The record segmentation of Fig. 7 slices
	// this sequence.
	//
	// Texts, Spans, Tokens and TextPos are windows of arrays the corpus's
	// pages share, each capped at its length: appending to one copies it
	// rather than writing over the next page's.
	Tokens  []int32
	TextPos []int
}

// Corpus is a set of pages from one website plus the global text-node index.
type Corpus struct {
	Pages []*Page

	texts  []*dom.Node // ordinal -> node: every page's Texts, back to back
	pageOf []int32     // ordinal -> page index
	first  []int       // page index -> ordinal of its first text

	// ordinal inverts texts. Learning never asks, so it is built on the
	// first OrdinalOf.
	ordinalOnce sync.Once
	ordinal     map[*dom.Node]int

	tokenIDs map[string]int32
	tokens   []string
}

// TextTokenID is the interned id of the "#text" pseudo tag; it is always 0.
const TextTokenID int32 = 0

// New builds a corpus from parsed documents. Each document is serialized
// once, in the same preorder walk that records its tokens, text ordinals and
// text spans, to produce the canonical HTML and text spans used by
// string-based inductors.
func New(docs []*dom.Node) *Corpus { return index(docs, nil) }

// index is New, told the documents' source lengths when it has them (nil
// when not). Every page's lists are appended to arrays the corpus's pages
// share, and each page takes its windows of them once the last page is
// indexed. Before each page after the first the arrays make room for the
// pages left: as much a source byte as the pages so far took, or without
// source lengths as much a page.
func index(docs []*dom.Node, src []string) *Corpus {
	c := &Corpus{
		tokenIDs: map[string]int32{dom.TextTag: TextTokenID},
		tokens:   []string{dom.TextTag},
		Pages:    make([]*Page, len(docs)),
		first:    make([]int, len(docs)+1),
	}
	weight := func(i int) int {
		if src == nil {
			return 1
		}
		return len(src[i]) + 1
	}
	var (
		x      = indexer{c: c}
		tokens = make([]int, len(docs)+1) // page index -> offset of its first token
		done   int                        // weight of the pages indexed
		left   int                        // weight of the pages not yet indexed
	)
	for i := range docs {
		left += weight(i)
	}
	for i, doc := range docs {
		if done > 0 {
			x.reserve(left, done)
		}
		p := &Page{Index: i, Root: doc}
		c.first[i], tokens[i] = len(c.texts), len(x.tokens)
		x.p, x.buf, x.tok0 = p, x.buf[:0], len(x.tokens)
		x.walk(doc, true)
		p.HTML = string(x.buf)
		c.Pages[i] = p
		done, left = done+weight(i), left-weight(i)
	}
	c.first[len(docs)], tokens[len(docs)] = len(c.texts), len(x.tokens)
	for i, p := range c.Pages {
		lo, hi := c.first[i], c.first[i+1]
		p.Texts = c.texts[lo:hi:hi]
		p.Spans = x.spans[lo:hi:hi]
		p.TextPos = x.textPos[lo:hi:hi]
		p.Tokens = x.tokens[tokens[i]:tokens[i+1]:tokens[i+1]]
	}
	return c
}

// indexer is New's walk of one page at a time: the serializer's preorder
// pass (dom.AppendHTML's, piece for piece) that also records the page's
// tokens and its extractable texts with their ordinals and spans, appended
// to the corpus-wide arrays.
type indexer struct {
	c   *Corpus
	p   *Page
	buf []byte // the page's serialization; reused from page to page

	spans   [][2]int
	tokens  []int32
	textPos []int // ordinal -> offset of its token within its page's
	tok0    int   // offset of the page's first token in tokens
}

// reserve makes room in every array for what pages of weight left should
// take, at the rate pages of weight done took, and 1/16 more.
func (x *indexer) reserve(left, done int) {
	c := x.c
	more := func(have int) int { return int(int64(have) * int64(left) / int64(done) * 17 / 16) }
	if n := more(len(c.texts)); cap(c.texts)-len(c.texts) < n {
		c.texts = slices.Grow(c.texts, n)
		c.pageOf = slices.Grow(c.pageOf, n)
		x.spans = slices.Grow(x.spans, n)
		x.textPos = slices.Grow(x.textPos, n)
	}
	if n := more(len(x.tokens)); cap(x.tokens)-len(x.tokens) < n {
		x.tokens = slices.Grow(x.tokens, n)
	}
}

// walk visits n and its subtree in preorder, serializing it when emit is
// set. A void element serializes no children, which the parser never
// builds; a hand-built tree's are still tokens, and their texts keep the
// span [0,0).
func (x *indexer) walk(n *dom.Node, emit bool) {
	switch n.Type {
	case dom.DocumentNode:
		for _, ch := range n.Children {
			x.walk(ch, emit)
		}
	case dom.TextNode:
		var span [2]int
		if emit {
			span[0] = len(x.buf)
			x.buf = dom.AppendText(x.buf, n.Data, n.Parent != nil && n.Parent.Raw)
			span[1] = len(x.buf)
		}
		x.tokens = append(x.tokens, TextTokenID)
		if IsExtractableText(n) {
			c := x.c
			x.spans = append(x.spans, span)
			x.textPos = append(x.textPos, len(x.tokens)-1-x.tok0)
			c.texts = append(c.texts, n)
			c.pageOf = append(c.pageOf, int32(x.p.Index))
		}
	case dom.ElementNode:
		x.tokens = append(x.tokens, x.c.internToken(n.Tag))
		void := dom.IsVoid(n.Tag)
		if emit {
			x.buf = dom.AppendStartTag(x.buf, n.Tag, n.Attrs)
		}
		for _, ch := range n.Children {
			x.walk(ch, emit && !void)
		}
		if emit && !void {
			x.buf = dom.AppendEndTag(x.buf, n.Tag)
		}
	}
}

// ParseHTML builds a corpus by parsing raw HTML pages.
func ParseHTML(pages []string) *Corpus {
	docs := make([]*dom.Node, len(pages))
	for i, src := range pages {
		docs[i] = htmlparse.Parse(src)
	}
	return index(docs, pages)
}

func isRawText(n *dom.Node) bool {
	return n.Parent != nil && n.Parent.Raw
}

// IsExtractableText reports whether n belongs to the extractable text-node
// universe a corpus indexes: a text node with non-whitespace content outside
// raw-text (script/style) elements. Compiled wrappers apply the same
// predicate at serve time so that extraction on unseen pages selects from
// exactly the universe induction saw.
func IsExtractableText(n *dom.Node) bool {
	return n.Type == dom.TextNode && strings.TrimSpace(n.Data) != "" && !isRawText(n)
}

// ExtractableTexts returns a page's extractable text nodes in preorder —
// the universe New would index for that page.
func ExtractableTexts(root *dom.Node) []*dom.Node {
	var out []*dom.Node
	root.Walk(func(n *dom.Node) bool {
		if IsExtractableText(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

func (c *Corpus) internToken(tag string) int32 {
	if id, ok := c.tokenIDs[tag]; ok {
		return id
	}
	id := int32(len(c.tokens))
	c.tokenIDs[tag] = id
	c.tokens = append(c.tokens, tag)
	return id
}

// TokenName resolves an interned token id back to the tag name.
func (c *Corpus) TokenName(id int32) string {
	if int(id) < len(c.tokens) {
		return c.tokens[int(id)]
	}
	return "?"
}

// NumTexts returns the size of the text-node universe.
func (c *Corpus) NumTexts() int { return len(c.texts) }

// Text returns the text node with the given ordinal.
func (c *Corpus) Text(ord int) *dom.Node { return c.texts[ord] }

// PageOf returns the page index owning the given ordinal.
func (c *Corpus) PageOf(ord int) int { return int(c.pageOf[ord]) }

// IndexInPage returns the position of ordinal within its page's Texts slice.
func (c *Corpus) IndexInPage(ord int) int { return ord - c.first[c.pageOf[ord]] }

// OrdinalOf returns the global ordinal of a text node, or -1 when the node
// is not part of the extractable universe.
func (c *Corpus) OrdinalOf(n *dom.Node) int {
	c.ordinalOnce.Do(func() {
		c.ordinal = make(map[*dom.Node]int, len(c.texts))
		for ord, t := range c.texts {
			c.ordinal[t] = ord
		}
	})
	if ord, ok := c.ordinal[n]; ok {
		return ord
	}
	return -1
}

// EmptySet returns an empty node set over this corpus's universe.
func (c *Corpus) EmptySet() *bitset.Set { return bitset.New(len(c.texts)) }

// FullSet returns the set of all extractable text nodes.
func (c *Corpus) FullSet() *bitset.Set { return bitset.Full(len(c.texts)) }

// SetOf builds a node set from ordinals.
func (c *Corpus) SetOf(ords ...int) *bitset.Set {
	return bitset.FromIndices(len(c.texts), ords)
}

// SetOfNodes builds a node set from dom nodes; unknown nodes are an error.
func (c *Corpus) SetOfNodes(nodes []*dom.Node) (*bitset.Set, error) {
	s := c.EmptySet()
	for _, n := range nodes {
		ord := c.OrdinalOf(n)
		if ord < 0 {
			return nil, fmt.Errorf("corpus: node %q is not an extractable text node", n.PathString())
		}
		s.Add(ord)
	}
	return s, nil
}

// MatchingText returns the set of text nodes whose trimmed content
// satisfies pred. Annotators and gold-label construction use this.
func (c *Corpus) MatchingText(pred func(string) bool) *bitset.Set {
	s := c.EmptySet()
	for ord, n := range c.texts {
		if pred(strings.TrimSpace(n.Data)) {
			s.Add(ord)
		}
	}
	return s
}

// TextContent returns the trimmed content of the given ordinal.
func (c *Corpus) TextContent(ord int) string {
	return strings.TrimSpace(c.texts[ord].Data)
}

// Contents materializes the trimmed contents of a node set in ordinal order.
func (c *Corpus) Contents(s *bitset.Set) []string {
	var out []string
	s.ForEach(func(ord int) {
		out = append(out, c.TextContent(ord))
	})
	return out
}

// PerPageCounts returns, for each page, how many members of s it contains.
func (c *Corpus) PerPageCounts(s *bitset.Set) []int {
	counts := make([]int, len(c.Pages))
	s.ForEach(func(ord int) {
		counts[c.pageOf[ord]]++
	})
	return counts
}
