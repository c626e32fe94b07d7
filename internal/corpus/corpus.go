// Package corpus represents a website as the set of structurally similar
// pages a rendering script generated (paper Sec. 2.1). It assigns every
// extractable text node a global ordinal so inductors, enumerators and the
// ranking model can treat label sets and wrapper outputs as bitsets.
//
// A corpus keeps what learning reads of a page, in flat arrays, and no
// tree: the canonical serialization with each text's span in it, the
// tag-token sequence, each text's content and parent element, and one
// record per element. ParseHTML is the one way to build a corpus: a page
// built as a tree (a generator's, a test's) is serialized and parsed like
// any other.
package corpus

import (
	"slices"
	"strings"

	"autowrap/internal/bitset"
	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
)

// Page is one parsed webpage of a site.
type Page struct {
	Index int // position within the corpus

	// HTML is the page's canonical serialization, dom.AppendHTML's bytes
	// for its tree. The LR inductor works on this string, and reparsing it
	// yields the tree the page was indexed from.
	HTML string

	// Spans locates the page's extractable texts in preorder: the escaped
	// content of its i-th text is HTML[Spans[i][0]:Spans[i][1]].
	Spans [][2]int32

	// Tokens is the page's preorder tag-token sequence (text nodes appear
	// as the interned "#text" token); TextPos[i] is the position of the
	// page's i-th text inside Tokens. The record segmentation of Fig. 7
	// slices this sequence.
	//
	// Spans, Tokens and TextPos are windows of arrays the corpus's pages
	// share, each capped at its length: appending to one copies it rather
	// than writing over the next page's.
	Tokens  []int32
	TextPos []int32
}

// Element is one element of a corpus page, as the learner reads it: its
// tag, the element it sits in and its same-tag child number there.
type Element struct {
	Tag string
	// Parent is the index of the enclosing element, or -1 for an element
	// at the top of its document.
	Parent int
	// ChildNumber is the 1-based position among the parent's element
	// children of the same tag: the index of xpath's td[2].
	ChildNumber int
}

// element is how a corpus keeps an Element: the tag as its token id, and
// where the element's attributes end in Corpus.attrs (they start where the
// element before it's end).
type element struct {
	tag, parent, childNumber, attrEnd int32
}

// Corpus is a set of pages from one website plus the global text-node index.
type Corpus struct {
	Pages []*Page

	texts      []string // ordinal -> trimmed content
	textParent []int32  // ordinal -> element it sits in, or -1
	pageOf     []int32  // ordinal -> page index
	first      []int    // page index -> ordinal of its first text
	elems      []element
	elemFirst  []int      // page index -> index of its first element
	attrs      []dom.Attr // every element's attributes, back to back

	tokenIDs map[string]int32
	tokens   []string
}

// TextTokenID is the interned id of the "#text" pseudo tag; it is always 0.
const TextTokenID int32 = 0

// ParseHTML builds a corpus by parsing raw HTML pages. The parser's events
// go straight into the corpus's arrays: no tree is built. Every page's
// lists are appended to arrays the corpus's pages share, and each page
// takes its windows of them once the last page is indexed. Before each page
// after the first the arrays make room for the pages left, at the rate per
// source byte the pages so far took.
func ParseHTML(pages []string) *Corpus {
	n := len(pages)
	c := &Corpus{
		tokenIDs:  map[string]int32{dom.TextTag: TextTokenID},
		tokens:    []string{dom.TextTag},
		Pages:     make([]*Page, n),
		first:     make([]int, n+1),
		elemFirst: make([]int, n+1),
	}
	var (
		x      = indexer{c: c, open: make([]level, 0, 32)}
		tokens = make([]int, n+1) // page index -> offset of its first token
		done   int                // source bytes of the pages indexed
		left   int                // source bytes of the pages not yet indexed
	)
	for _, src := range pages {
		left += len(src) + 1
	}
	if n > 0 {
		x.census(pages)
	}
	for i, src := range pages {
		if done > 0 {
			x.reserve(left, done)
		}
		c.first[i], c.elemFirst[i], tokens[i] = len(c.texts), len(c.elems), len(x.tokens)
		x.buf, x.tok0, x.page, x.open = x.buf[:0], len(x.tokens), int32(i), x.open[:0]
		x.push(-1)
		htmlparse.Stream(src, &x)
		c.Pages[i] = &Page{Index: i, HTML: string(x.buf)}
		done, left = done+len(src)+1, left-len(src)-1
	}
	c.first[n], c.elemFirst[n], tokens[n] = len(c.texts), len(c.elems), len(x.tokens)
	for i, p := range c.Pages {
		lo, hi := c.first[i], c.first[i+1]
		p.Spans = x.spans[lo:hi:hi]
		p.TextPos = x.textPos[lo:hi:hi]
		p.Tokens = x.tokens[tokens[i]:tokens[i+1]:tokens[i+1]]
	}
	return c
}

// indexer is the htmlparse.Handler a corpus is built with, one page at a
// time: the serializer's preorder pass (dom.AppendHTML's, piece for piece)
// that also records the page's tokens, its extractable texts with their
// ordinals, spans and parent elements, and its elements, appended to the
// corpus-wide arrays.
type indexer struct {
	c   *Corpus
	buf []byte // the page's serialization; reused from page to page

	spans   [][2]int32
	tokens  []int32
	textPos []int32 // ordinal -> offset of its token within its page's
	tok0    int     // offset of the page's first token in tokens
	page    int32   // index of the page being indexed

	// open holds a level for each open element, below them one for the
	// document.
	open []level
}

// level is one open element, or the document.
type level struct {
	elem   int32            // -1 for the document
	counts dom.ChildCounter // the element children so far, by tag
}

// reserve makes room in every array for what pages of left source bytes
// should take, at the rate pages of done source bytes took, and 1/16 more.
func (x *indexer) reserve(left, done int) {
	more := func(have int) int { return int(int64(have) * int64(left) / int64(done) * 17 / 16) }
	x.room(more(len(x.c.texts)), more(len(x.tokens)), more(len(x.c.elems)), more(len(x.c.attrs)))
}

// census sizes the arrays for all the pages at the first page's rate a
// source byte, as htmlparse.Census counts it, and 1/16 more, so that a
// site of pages alike is indexed into arrays allocated once; and the
// serialization buffer for the longest page, as a page serializes to about
// its own length.
func (x *indexer) census(pages []string) {
	elems, texts, attrs := htmlparse.Census(pages[0])
	total, longest := 0, 0
	for _, p := range pages {
		total, longest = total+len(p)+1, max(longest, len(p))
	}
	x.buf = slices.Grow(x.buf, longest+longest/16)
	scale := func(n int) int { return int(int64(n) * int64(total) / int64(len(pages[0])+1) * 17 / 16) }
	x.room(scale(texts), scale(elems+texts), scale(elems), scale(attrs))
}

// room makes sure the arrays have room for as many more texts, tokens,
// elements and attributes.
func (x *indexer) room(texts, tokens, elems, attrs int) {
	c := x.c
	if cap(c.texts)-len(c.texts) < texts {
		c.texts = slices.Grow(c.texts, texts)
		c.textParent = slices.Grow(c.textParent, texts)
		c.pageOf = slices.Grow(c.pageOf, texts)
		x.spans = slices.Grow(x.spans, texts)
		x.textPos = slices.Grow(x.textPos, texts)
	}
	if cap(x.tokens)-len(x.tokens) < tokens {
		x.tokens = slices.Grow(x.tokens, tokens)
	}
	if cap(c.elems)-len(c.elems) < elems {
		c.elems = slices.Grow(c.elems, elems)
	}
	if cap(c.attrs)-len(c.attrs) < attrs {
		c.attrs = slices.Grow(c.attrs, attrs)
	}
}

// StartElement implements htmlparse.Handler. A leaf that is not void still
// serializes with its end tag.
func (x *indexer) StartElement(tag string, attrs []dom.Attr, container bool) {
	c := x.c
	top := &x.open[len(x.open)-1]
	e := int32(len(c.elems))
	id := c.internToken(tag)
	c.attrs = append(c.attrs, attrs...)
	c.elems = append(c.elems, element{
		tag:         id,
		parent:      top.elem,
		childNumber: int32(top.counts.Next(tag)),
		attrEnd:     int32(len(c.attrs)),
	})
	x.tokens = append(x.tokens, id)
	x.buf = dom.AppendStartTag(x.buf, tag, attrs)
	if container {
		x.push(e)
	} else if !dom.IsVoid(tag) {
		x.buf = dom.AppendEndTag(x.buf, tag)
	}
}

// EndElement implements htmlparse.Handler.
func (x *indexer) EndElement(tag string) {
	x.open = x.open[:len(x.open)-1]
	x.buf = dom.AppendEndTag(x.buf, tag)
}

// push opens a level for element e, or with e -1 for the document, keeping
// the child counter's storage of the level that last stood there.
func (x *indexer) push(e int32) {
	at := len(x.open)
	if at == cap(x.open) {
		x.open = append(x.open, level{})
	}
	x.open = x.open[:at+1]
	l := &x.open[at]
	l.elem = e
	l.counts.Reset()
}

// WantText implements htmlparse.Handler: every text is a token.
func (x *indexer) WantText() bool { return true }

// Text implements htmlparse.Handler. A text is extractable (see
// IsExtractableText) unless it is raw or white space.
func (x *indexer) Text(data string, raw bool) {
	start := int32(len(x.buf))
	x.buf = dom.AppendText(x.buf, data, raw)
	span := [2]int32{start, int32(len(x.buf))}
	x.tokens = append(x.tokens, TextTokenID)
	if trimmed := strings.TrimSpace(data); !raw && trimmed != "" {
		c := x.c
		x.spans = append(x.spans, span)
		x.textPos = append(x.textPos, int32(len(x.tokens)-1-x.tok0))
		c.texts = append(c.texts, trimmed)
		c.textParent = append(c.textParent, x.open[len(x.open)-1].elem)
		c.pageOf = append(c.pageOf, x.page)
	}
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
// the universe a corpus indexes for that page.
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

// PageOf returns the page index owning the given ordinal.
func (c *Corpus) PageOf(ord int) int { return int(c.pageOf[ord]) }

// IndexInPage returns the position of ordinal among its page's texts.
func (c *Corpus) IndexInPage(ord int) int { return ord - c.first[c.pageOf[ord]] }

// TextRange returns the ordinals of page i's texts: [lo, hi).
func (c *Corpus) TextRange(i int) (lo, hi int) { return c.first[i], c.first[i+1] }

// TextParent returns the index of the element the text with the given
// ordinal sits in, or -1 for a text at the top of its document.
func (c *Corpus) TextParent(ord int) int { return int(c.textParent[ord]) }

// NumElements returns how many elements the corpus's pages hold.
func (c *Corpus) NumElements() int { return len(c.elems) }

// Element returns the element with the given index. Elements are numbered
// across the corpus in document order, page after page, so an element's
// parent has a smaller index.
func (c *Corpus) Element(e int) Element {
	el := &c.elems[e]
	return Element{Tag: c.tokens[el.tag], Parent: int(el.parent), ChildNumber: int(el.childNumber)}
}

// ElementRange returns the indices of page i's elements: [lo, hi).
func (c *Corpus) ElementRange(i int) (lo, hi int) { return c.elemFirst[i], c.elemFirst[i+1] }

// Attrs returns element e's attributes in source order, capped at their
// length.
func (c *Corpus) Attrs(e int) []dom.Attr {
	start, end := int32(0), c.elems[e].attrEnd
	if e > 0 {
		start = c.elems[e-1].attrEnd
	}
	return c.attrs[start:end:end]
}

// EmptySet returns an empty node set over this corpus's universe.
func (c *Corpus) EmptySet() *bitset.Set { return bitset.New(len(c.texts)) }

// FullSet returns the set of all extractable text nodes.
func (c *Corpus) FullSet() *bitset.Set { return bitset.Full(len(c.texts)) }

// SetOf builds a node set from ordinals.
func (c *Corpus) SetOf(ords ...int) *bitset.Set {
	return bitset.FromIndices(len(c.texts), ords)
}

// MatchingText returns the set of text nodes whose trimmed content
// satisfies pred. Annotators and gold-label construction use this.
func (c *Corpus) MatchingText(pred func(string) bool) *bitset.Set {
	s := c.EmptySet()
	for ord, t := range c.texts {
		if pred(t) {
			s.Add(ord)
		}
	}
	return s
}

// TextContent returns the trimmed content of the given ordinal.
func (c *Corpus) TextContent(ord int) string { return c.texts[ord] }

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
