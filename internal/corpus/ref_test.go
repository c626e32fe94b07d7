package corpus_test

import (
	"slices"
	"testing"

	"autowrap/internal/corpus"
	"autowrap/internal/dataset"
	"autowrap/internal/dom"
)

// refPage is a page as New indexed it before its one walk: the serializer's
// pass for the HTML and spans, then a second preorder walk for the tokens
// and texts, each text's span found by node among the serializer's.
type refPage struct {
	html    string
	texts   []*dom.Node
	spans   [][2]int
	tokens  []string
	textPos []int
}

func refIndex(doc *dom.Node) refPage {
	var spans []dom.TextSpan
	r := refPage{html: string(dom.AppendHTML(nil, doc, &spans))}
	next := 0
	doc.Walk(func(n *dom.Node) bool {
		switch n.Type {
		case dom.TextNode:
			r.tokens = append(r.tokens, dom.TextTag)
			var span [2]int
			for k := next; k < len(spans); k++ {
				if spans[k].Node == n {
					span, next = [2]int{spans[k].Start, spans[k].End}, k+1
					break
				}
			}
			if corpus.IsExtractableText(n) {
				r.spans = append(r.spans, span)
				r.textPos = append(r.textPos, len(r.tokens)-1)
				r.texts = append(r.texts, n)
			}
		case dom.ElementNode:
			r.tokens = append(r.tokens, n.Tag)
		}
		return true
	})
	return r
}

// assertIndexMatchesReference holds every page of c to refIndex, and the
// global ordinals to the pages' texts in order.
func assertIndexMatchesReference(t *testing.T, name string, c *corpus.Corpus) {
	t.Helper()
	ord := 0
	for i, p := range c.Pages {
		want := refIndex(p.Root)
		tokens := make([]string, len(p.Tokens))
		for k, id := range p.Tokens {
			tokens[k] = c.TokenName(id)
		}
		switch {
		case p.HTML != want.html:
			t.Fatalf("%s page %d: HTML differs from the serializer's", name, i)
		case !slices.Equal(p.Spans, want.spans):
			t.Fatalf("%s page %d: spans %v, reference %v", name, i, p.Spans, want.spans)
		case !slices.Equal(tokens, want.tokens):
			t.Fatalf("%s page %d: tokens %v, reference %v", name, i, tokens, want.tokens)
		case !slices.Equal(p.TextPos, want.textPos) || !slices.Equal(p.Texts, want.texts):
			t.Fatalf("%s page %d: texts at %v, reference %v", name, i, p.TextPos, want.textPos)
		}
		for k, n := range p.Texts {
			if c.Text(ord) != n || c.PageOf(ord) != i || c.IndexInPage(ord) != k {
				t.Fatalf("%s page %d: ordinal %d does not index text %d", name, i, ord, k)
			}
			ord++
		}
	}
	if ord != c.NumTexts() {
		t.Fatalf("%s: %d ordinals, %d page texts", name, c.NumTexts(), ord)
	}
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
	for _, ds := range []*dataset.Dataset{disc, dealers} {
		for _, site := range ds.Sites {
			assertIndexMatchesReference(t, site.Name, site.Corpus)
		}
	}
	// A hand-built tree can hold what the parser never builds: children
	// under a void element (tokens, but no HTML and an empty span), text
	// under script, whitespace-only text, a nested document.
	doc := dom.NewDocument()
	body := doc.Append(dom.NewElement("body"))
	br := body.Append(dom.NewElement("br"))
	br.Append(dom.NewText("hidden"))
	body.Append(dom.NewElement("script")).Append(dom.NewText("x < y"))
	body.Append(dom.NewElement("p", "class", "a&b")).AppendAll(dom.NewText("  "), dom.NewText("a < b"))
	inner := body.Append(dom.NewDocument())
	inner.Append(dom.NewElement("i")).Append(dom.NewText("in"))
	assertIndexMatchesReference(t, "hand-built", corpus.New([]*dom.Node{doc, doc.Clone()}))
}

// TestPageListsAreCappedWindows: a page's lists are windows of arrays the
// corpus's pages share, so appending to one must copy it, not write over
// the next page's.
func TestPageListsAreCappedWindows(t *testing.T) {
	dealers, err := dataset.Dealers(dataset.DealersOptions{NumSites: 1, NumPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := dealers.Sites[0].Corpus
	for i, p := range c.Pages[:len(c.Pages)-1] {
		next := c.Pages[i+1]
		texts, spans := slices.Clone(next.Texts), slices.Clone(next.Spans)
		tokens, textPos := slices.Clone(next.Tokens), slices.Clone(next.TextPos)
		_ = append(p.Texts, &dom.Node{})
		_ = append(p.Spans, [2]int{-1, -1})
		_ = append(p.Tokens, -1)
		_ = append(p.TextPos, -1)
		if !slices.Equal(next.Texts, texts) || !slices.Equal(next.Spans, spans) ||
			!slices.Equal(next.Tokens, tokens) || !slices.Equal(next.TextPos, textPos) {
			t.Fatalf("appending to page %d's lists wrote into page %d's", i, i+1)
		}
	}
	assertIndexMatchesReference(t, "after appends", c)
}
