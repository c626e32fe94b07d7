package xpath

import (
	"slices"
	"strings"
	"testing"

	"autowrap/internal/htmlparse"
	"autowrap/internal/testutil/pincheck"
	"autowrap/internal/testutil/race"
)

// The tree ≡ stream table and fuzz live with the parser
// (internal/htmlparse/stream_test.go), where both rule languages are in
// reach; here are the matcher's own properties.

// treeTexts is ApplyHTML by its definition.
func treeTexts(e *Expr, html string) []string {
	var out []string
	for _, n := range e.Eval(htmlparse.Parse(html)) {
		if s := strings.TrimSpace(n.Data); s != "" && !n.Parent.Raw {
			out = append(out, s)
		}
	}
	return out
}

// TestApplyHTMLCountsChildrenByTagAlone: whether a child is numbered must
// not depend on its attributes, or a sibling that fails an attribute
// predicate would shift the numbers of those after it.
func TestApplyHTMLCountsChildrenByTagAlone(t *testing.T) {
	html := `<ul><li class="x">a</li><li>b</li><li class="x">c</li><p>d</p><li class="x">e</li></ul>`
	for _, rule := range []string{
		`//li[@class='x'][3]/text()`, `//li[3][@class='x']/text()`, `//li[@class='x'][2]/text()`,
		`//*[@class='x'][4]/text()`, `//*[1]/text()`, `/ul/li[4]/text()`,
	} {
		e := MustParse(rule)
		if got, want := e.ApplyHTML(html), treeTexts(e, html); !slices.Equal(got, want) {
			t.Errorf("%s: ApplyHTML %q, Eval %q", rule, got, want)
		}
	}
}

func TestApplyHTMLNeedsText(t *testing.T) {
	if got := MustParse(`//li`).ApplyHTML(`<li>a</li>`); got != nil {
		t.Fatalf("an expression that selects elements yielded %q", got)
	}
}

// TestApplyHTMLAllocBudget: in steady state a page costs the result slice
// and nothing else — frames, state sets, child counts and the parser's
// scratch are pooled, and text that is already collapsed aliases the page.
func TestApplyHTMLAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	page := "<html><body><table>" +
		strings.Repeat("<tr><td class='k'>label</td><td class='v'>value text</td></tr>", 40) +
		"</table></body></html>"
	e := MustParse(`//html[1]/body[1]/table[1]/tr/td[2][@class='v']/text()`)
	if got := e.ApplyHTML(page); len(got) != 40 || got[0] != "value text" {
		t.Fatalf("fixture extraction = %q", got)
	}
	if avg := testing.AllocsPerRun(200, func() { e.ApplyHTML(page) }); avg > 1 {
		t.Fatalf("ApplyHTML allocates %.1f times a page, budget is 1", avg)
	}
}

// TestFinishedMatcherDoesNotPinSource: results and child-count tags alias
// the page; a matcher back in its pool must hold neither.
func TestFinishedMatcherDoesNotPinSource(t *testing.T) {
	e := MustParse(`//ul[1]/li/a[1]/text()`)
	pincheck.Freed(t, pincheck.Page, func(page string) any {
		m := new(matcher)
		m.start(e)
		htmlparse.Stream(page, m)
		if len(m.out) != 2 {
			t.Fatalf("fixture matched %q", m.out)
		}
		m.finish()
		return m
	})
}
