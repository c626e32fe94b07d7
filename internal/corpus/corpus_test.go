package corpus

import (
	"strings"
	"testing"

	"autowrap/internal/dom"
)

func twoPages() *Corpus {
	return ParseHTML([]string{
		`<html><body><ul><li>alpha</li><li>beta</li></ul></body></html>`,
		`<html><body><ul><li>gamma</li></ul><p>delta</p></body></html>`,
	})
}

func TestOrdinalsAreGlobalAndOrdered(t *testing.T) {
	c := twoPages()
	if c.NumTexts() != 4 {
		t.Fatalf("NumTexts = %d", c.NumTexts())
	}
	want := []string{"alpha", "beta", "gamma", "delta"}
	for ord, w := range want {
		if got := c.TextContent(ord); got != w {
			t.Fatalf("ordinal %d = %q, want %q", ord, got, w)
		}
	}
	if c.PageOf(0) != 0 || c.PageOf(1) != 0 || c.PageOf(2) != 1 || c.PageOf(3) != 1 {
		t.Fatal("PageOf wrong")
	}
	if c.IndexInPage(2) != 0 || c.IndexInPage(3) != 1 {
		t.Fatal("IndexInPage wrong")
	}
}

func TestOrdinalOfRoundTrip(t *testing.T) {
	c := twoPages()
	for ord := 0; ord < c.NumTexts(); ord++ {
		if c.OrdinalOf(c.Text(ord)) != ord {
			t.Fatalf("round trip failed at %d", ord)
		}
	}
	if c.OrdinalOf(dom.NewText("unattached")) != -1 {
		t.Fatal("foreign node should map to -1")
	}
}

func TestWhitespaceTextExcluded(t *testing.T) {
	c := ParseHTML([]string{`<div>  <span>x</span>  </div>`})
	if c.NumTexts() != 1 {
		t.Fatalf("NumTexts = %d, want 1", c.NumTexts())
	}
}

func TestScriptTextExcluded(t *testing.T) {
	c := ParseHTML([]string{`<script>var x = 1;</script><p>real</p>`})
	if c.NumTexts() != 1 || c.TextContent(0) != "real" {
		t.Fatalf("script text leaked into universe: %d texts", c.NumTexts())
	}
}

func TestSpansLocateEscapedText(t *testing.T) {
	c := ParseHTML([]string{`<p>Tom &amp; Jerry</p>`})
	p := c.Pages[0]
	span := p.Spans[0]
	if got := p.HTML[span[0]:span[1]]; got != "Tom &amp; Jerry" {
		t.Fatalf("span content = %q", got)
	}
}

func TestTokensPreorderWithTextToken(t *testing.T) {
	c := ParseHTML([]string{`<div><b>x</b><i>y</i></div>`})
	p := c.Pages[0]
	var names []string
	for _, id := range p.Tokens {
		names = append(names, c.TokenName(id))
	}
	// The parser does not synthesize html/body wrappers for fragments.
	want := "div b #text i #text"
	if strings.Join(names, " ") != want {
		t.Fatalf("tokens = %v, want %v", names, want)
	}
	// TextPos points at the #text tokens.
	for i, pos := range p.TextPos {
		if p.Tokens[pos] != TextTokenID {
			t.Fatalf("TextPos[%d] = %d does not reference a #text token", i, pos)
		}
	}
}

func TestSetHelpers(t *testing.T) {
	c := twoPages()
	s := c.SetOf(1, 3)
	if got := c.Contents(s); strings.Join(got, ",") != "beta,delta" {
		t.Fatalf("Contents = %v", got)
	}
	counts := c.PerPageCounts(s)
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("PerPageCounts = %v", counts)
	}
	if c.FullSet().Count() != 4 || !c.EmptySet().Empty() {
		t.Fatal("FullSet/EmptySet wrong")
	}
}

func TestSetOfNodes(t *testing.T) {
	c := twoPages()
	s, err := c.SetOfNodes([]*dom.Node{c.Text(0), c.Text(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(0) || !s.Has(2) || s.Count() != 2 {
		t.Fatalf("SetOfNodes = %v", s.Indices())
	}
	if _, err := c.SetOfNodes([]*dom.Node{dom.NewText("zzz")}); err == nil {
		t.Fatal("expected error for foreign node")
	}
}

func TestMatchingText(t *testing.T) {
	c := twoPages()
	s := c.MatchingText(func(v string) bool { return strings.HasSuffix(v, "a") })
	// alpha, beta, gamma, delta all end in 'a'.
	if s.Count() != 4 {
		t.Fatalf("MatchingText count = %d", s.Count())
	}
	s = c.MatchingText(func(v string) bool { return v == "beta" })
	if s.Count() != 1 || !s.Has(1) {
		t.Fatalf("MatchingText(beta) = %v", s.Indices())
	}
}

func TestCanonicalHTMLIsReparseStable(t *testing.T) {
	c := twoPages()
	for _, p := range c.Pages {
		again := ParseHTML([]string{p.HTML})
		if again.Pages[0].HTML != p.HTML {
			t.Fatal("canonical HTML is not a parse fixed point")
		}
	}
}
