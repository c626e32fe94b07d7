package corpus_test

import (
	"slices"
	"strings"
	"testing"

	"autowrap/internal/corpus"
	"autowrap/internal/dataset"
	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
)

// refPage is a page as the corpus indexed it when it kept the page's tree:
// htmlparse.Parse built the tree, and one preorder walk of it serialized
// the page and recorded its tokens, texts and spans. The element records
// and the texts' parents are what a walk reads off the tree's nodes.
type refPage struct {
	html       string
	spans      [][2]int32
	tokens     []string
	textPos    []int32
	texts      []string // trimmed content
	textParent []int    // index into elems, or -1
	elems      []refElem
}

type refElem struct {
	tag         string
	parent      int
	childNumber int
	attrs       []dom.Attr
}

// refIndex is the tree indexer the corpus replaced. A void element
// serializes no children, which the parser never builds; a hand-built
// tree's are still tokens, and their texts keep the span [0,0). A
// document node opens a new chain of ancestors.
func refIndex(doc *dom.Node) refPage {
	var (
		r   refPage
		buf []byte
		idx = map[*dom.Node]int{}
	)
	parent := func(n *dom.Node) int {
		if n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return -1
		}
		return idx[n.Parent]
	}
	var walk func(n *dom.Node, emit bool)
	walk = func(n *dom.Node, emit bool) {
		switch n.Type {
		case dom.DocumentNode:
			for _, ch := range n.Children {
				walk(ch, emit)
			}
		case dom.TextNode:
			var span [2]int32
			if emit {
				span[0] = int32(len(buf))
				buf = dom.AppendText(buf, n.Data, n.Parent != nil && n.Parent.Raw)
				span[1] = int32(len(buf))
			}
			r.tokens = append(r.tokens, dom.TextTag)
			if corpus.IsExtractableText(n) {
				r.spans = append(r.spans, span)
				r.textPos = append(r.textPos, int32(len(r.tokens)-1))
				r.texts = append(r.texts, strings.TrimSpace(n.Data))
				r.textParent = append(r.textParent, parent(n))
			}
		case dom.ElementNode:
			idx[n] = len(r.elems)
			r.elems = append(r.elems, refElem{n.Tag, parent(n), n.ChildNumber(), n.Attrs})
			r.tokens = append(r.tokens, n.Tag)
			void := dom.IsVoid(n.Tag)
			if emit {
				buf = dom.AppendStartTag(buf, n.Tag, n.Attrs)
			}
			for _, ch := range n.Children {
				walk(ch, emit && !void)
			}
			if emit && !void {
				buf = dom.AppendEndTag(buf, n.Tag)
			}
		}
	}
	walk(doc, true)
	r.html = string(buf)
	return r
}

// assertIndexMatchesReference holds every page of c to refIndex of the
// page's tree, and the global ordinals and element indices to the pages'
// texts and elements in order.
func assertIndexMatchesReference(t testing.TB, name string, c *corpus.Corpus, docs []*dom.Node) {
	t.Helper()
	if len(c.Pages) != len(docs) {
		t.Fatalf("%s: %d pages, %d trees", name, len(c.Pages), len(docs))
	}
	ord, elem := 0, 0
	for i, p := range c.Pages {
		want := refIndex(docs[i])
		tokens := make([]string, len(p.Tokens))
		for k, id := range p.Tokens {
			tokens[k] = c.TokenName(id)
		}
		lo, hi := c.TextRange(i)
		elo, ehi := c.ElementRange(i)
		texts, parents := make([]string, 0, hi-lo), make([]int, 0, hi-lo)
		for o := lo; o < hi; o++ {
			texts = append(texts, c.TextContent(o))
			e := c.TextParent(o)
			if e >= 0 {
				e -= elo
			}
			parents = append(parents, e)
		}
		elems := make([]refElem, 0, ehi-elo)
		for e := elo; e < ehi; e++ {
			el := c.Element(e)
			parent := el.Parent
			if parent >= 0 {
				parent -= elo
			}
			elems = append(elems, refElem{el.Tag, parent, el.ChildNumber, c.Attrs(e)})
		}
		switch {
		case p.HTML != want.html:
			t.Fatalf("%s page %d: HTML differs from the tree indexer's:\n%q\n%q", name, i, p.HTML, want.html)
		case !slices.Equal(p.Spans, want.spans):
			t.Fatalf("%s page %d: spans %v, reference %v", name, i, p.Spans, want.spans)
		case !slices.Equal(tokens, want.tokens):
			t.Fatalf("%s page %d: tokens %v, reference %v", name, i, tokens, want.tokens)
		case !slices.Equal(p.TextPos, want.textPos):
			t.Fatalf("%s page %d: texts at %v, reference %v", name, i, p.TextPos, want.textPos)
		case !slices.Equal(texts, want.texts):
			t.Fatalf("%s page %d: texts %q, reference %q", name, i, texts, want.texts)
		case !slices.Equal(parents, want.textParent):
			t.Fatalf("%s page %d: texts' parents %v, reference %v", name, i, parents, want.textParent)
		case !slices.EqualFunc(elems, want.elems, func(a, b refElem) bool {
			return a.tag == b.tag && a.parent == b.parent && a.childNumber == b.childNumber && slices.Equal(a.attrs, b.attrs)
		}):
			t.Fatalf("%s page %d: elements %v, reference %v", name, i, elems, want.elems)
		}
		for k := range hi - lo {
			if lo+k != ord || c.PageOf(ord) != i || c.IndexInPage(ord) != k {
				t.Fatalf("%s page %d: ordinal %d does not index text %d", name, i, ord, k)
			}
			ord++
		}
		if elo != elem {
			t.Fatalf("%s page %d: elements start at %d, want %d", name, i, elo, elem)
		}
		elem = ehi
	}
	if ord != c.NumTexts() || elem != c.NumElements() {
		t.Fatalf("%s: %d ordinals and %d elements, %d page texts and %d page elements", name, c.NumTexts(), c.NumElements(), ord, elem)
	}
}

// parseAll parses every page into its tree.
func parseAll(pages []string) []*dom.Node {
	docs := make([]*dom.Node, len(pages))
	for i, src := range pages {
		docs[i] = htmlparse.Parse(src)
	}
	return docs
}

// assertStreamMatchesTree indexes pages both ways the corpus takes them —
// streamed by ParseHTML, and as trees by New — and holds each to the tree
// indexer over the parsed trees.
func assertStreamMatchesTree(t testing.TB, name string, pages []string) {
	t.Helper()
	docs := parseAll(pages)
	assertIndexMatchesReference(t, name+" (streamed)", corpus.ParseHTML(pages), docs)
	assertIndexMatchesReference(t, name+" (trees)", corpus.New(docs), docs)
}

// deepMarkup nests a branch depth elements deep inside a few outer levels,
// each of which goes on after it with siblings and text: the open-element
// stack grows past its first capacity, and every element and text after
// the deep branch must still find its parent and child number.
func deepMarkup(depth int) string {
	return `<div><section><p>before</p>` +
		strings.Repeat(`<div><span>x</span>`, depth) + `deep` + strings.Repeat(`</div>`, depth) +
		`<p>after</p>mid<div><b>one</b><b>two</b></div></section>outer<span>s</span></div><p>top</p>tail`
}

func TestIndexMatchesReference(t *testing.T) {
	disc, err := dataset.Disc(dataset.DiscOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dealers, err := dataset.Dealers(dataset.DealersOptions{NumSites: 4, NumPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	prods, err := dataset.Products(dataset.ProductsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*dataset.Dataset{disc, dealers, prods} {
		for _, site := range ds.Sites {
			var pages []string
			for _, p := range site.Corpus.Pages {
				pages = append(pages, p.HTML)
			}
			// The site's own corpus was indexed from the generator's
			// source, not from its canonical HTML: reparsing that HTML
			// must give back the pages it was indexed from.
			assertIndexMatchesReference(t, site.Name+" (source)", site.Corpus, parseAll(pages))
			assertStreamMatchesTree(t, site.Name, pages)
		}
	}
	assertStreamMatchesTree(t, "odd markup", []string{
		`<table><tr><td>a<td>b<tr><td>c</table><p>one<p>two<br>three`,
		`<ul><li>x &amp; y<li><script>if (a < b) {}</script>z</ul><img src="i.png" alt='q"t'>`,
		`<div class="a" id=b>  spaced   out  </div><!-- gone -->tail</span>`,
		deepMarkup(70),
		deepMarkup(140),
		``,
	})
	// A hand-built tree can hold what the parser never builds: children
	// under a void element (tokens, but no HTML and an empty span), text
	// under script, whitespace-only text, a nested document.
	doc := dom.NewDocument()
	body := doc.Append(dom.NewElement("body"))
	br := body.Append(dom.NewElement("br"))
	br.Append(dom.NewText("hidden"))
	br.Append(dom.NewElement("img")).Append(dom.NewElement("b")).Append(dom.NewText("deeper"))
	body.Append(dom.NewElement("script")).Append(dom.NewText("x < y"))
	body.Append(dom.NewElement("p", "class", "a&b")).AppendAll(dom.NewText("  "), dom.NewText("a < b"))
	inner := body.Append(dom.NewDocument())
	inner.Append(dom.NewElement("i")).Append(dom.NewText("in"))
	body.Append(dom.NewElement("i")).Append(dom.NewText("out"))
	docs := []*dom.Node{doc, doc.Clone()}
	assertIndexMatchesReference(t, "hand-built", corpus.New(docs), docs)
}

// FuzzCorpusMatchesTree: whatever the markup, the corpus ParseHTML streams
// from the parser's events is the one the tree indexer builds from the
// parsed tree, and so is the corpus New walks from that tree.
func FuzzCorpusMatchesTree(f *testing.F) {
	for _, seed := range []string{
		`<html><body><ul><li>alpha</li><li>beta</li></ul></body></html>`,
		`<table><tr><td>a<td>b<tr><td>c</table>`,
		`<p class=x>Tom &amp; Jerry<br>next<script>var s = "<b>";</script>`,
		`<div><div><span>a</span>b<!-- c -->d</div></div></i>`,
		`<dl><dt>k<dd>v<dt>k2</dl><select><option>1<option>2</select>`,
		deepMarkup(70),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		assertStreamMatchesTree(t, "fuzz", []string{src, src})
	})
}

// TestPageListsAreCappedWindows: a page's lists are windows of arrays the
// corpus's pages share, so appending to one must copy it, not write over
// the next page's; an element's attributes are such a window too.
func TestPageListsAreCappedWindows(t *testing.T) {
	dealers, err := dataset.Dealers(dataset.DealersOptions{NumSites: 1, NumPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := dealers.Sites[0].Corpus
	for i, p := range c.Pages[:len(c.Pages)-1] {
		next := c.Pages[i+1]
		spans, tokens, textPos := slices.Clone(next.Spans), slices.Clone(next.Tokens), slices.Clone(next.TextPos)
		_ = append(p.Spans, [2]int32{-1, -1})
		_ = append(p.Tokens, -1)
		_ = append(p.TextPos, -1)
		if !slices.Equal(next.Spans, spans) || !slices.Equal(next.Tokens, tokens) || !slices.Equal(next.TextPos, textPos) {
			t.Fatalf("appending to page %d's lists wrote into page %d's", i, i+1)
		}
	}
	for e := 0; e+1 < c.NumElements(); e++ {
		next := slices.Clone(c.Attrs(e + 1))
		_ = append(c.Attrs(e), dom.Attr{Key: "x", Val: "y"})
		if !slices.Equal(c.Attrs(e+1), next) {
			t.Fatalf("appending to element %d's attributes wrote into element %d's", e, e+1)
		}
	}
	docs := make([]*dom.Node, len(c.Pages))
	for i, p := range c.Pages {
		docs[i] = htmlparse.Parse(p.HTML)
	}
	assertIndexMatchesReference(t, "after appends", c, docs)
}
