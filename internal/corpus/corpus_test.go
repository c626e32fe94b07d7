package corpus

import (
	"fmt"
	"strings"
	"testing"
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

func TestTextRangesRoundTrip(t *testing.T) {
	c := twoPages()
	for i := range c.Pages {
		lo, hi := c.TextRange(i)
		for ord := lo; ord < hi; ord++ {
			if c.PageOf(ord) != i || lo+c.IndexInPage(ord) != ord {
				t.Fatalf("round trip failed at %d", ord)
			}
		}
	}
	if lo, hi := c.TextRange(1); lo != 2 || hi != 4 {
		t.Fatalf("TextRange(1) = [%d, %d)", lo, hi)
	}
}

// TestTextParentsAndElements: each text knows the element it sits in, and
// each element its tag, attributes, parent and same-tag child number.
func TestTextParentsAndElements(t *testing.T) {
	c := ParseHTML([]string{`top<div id="d"><p>a</p><b>x</b><p class="k">b</p></div>`})
	if lo, hi := c.ElementRange(0); lo != 0 || hi != 4 || c.NumElements() != 4 {
		t.Fatalf("ElementRange = [%d, %d) of %d", lo, hi, c.NumElements())
	}
	var got []string
	for e := 0; e < c.NumElements(); e++ {
		el := c.Element(e)
		got = append(got, fmt.Sprintf("%s[%d]<%d%v", el.Tag, el.ChildNumber, el.Parent, c.Attrs(e)))
	}
	if want := "div[1]<-1[{id d}] p[1]<0[] b[1]<0[] p[2]<0[{class k}]"; strings.Join(got, " ") != want {
		t.Fatalf("elements %v, want %v", got, want)
	}
	var parents []int
	for ord := 0; ord < c.NumTexts(); ord++ {
		parents = append(parents, c.TextParent(ord))
	}
	if fmt.Sprint(parents) != "[-1 1 2 3]" {
		t.Fatalf("text parents %v", parents)
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
