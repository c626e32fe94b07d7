package xpinduct

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/gen"
	"autowrap/internal/testutil/corpustree"
	"autowrap/internal/xpath"
)

// TestRuleEvalMatchesExtractionOnGeneratedSites closes the loop between the
// feature semantics and the concrete xpath language on realistic markup:
// for random label subsets over generated dealer sites, the rendered rule,
// evaluated by the xpath engine — on the tree and on the token stream —
// selects exactly the wrapper's extraction.
func TestRuleEvalMatchesExtractionOnGeneratedSites(t *testing.T) {
	pool := gen.BusinessPool(77, 400, 0)
	rng := rand.New(rand.NewSource(123))
	for seed := int64(0); seed < 5; seed++ {
		site, err := gen.DealerSite(gen.DealerConfig{Seed: seed + 200, Pool: pool, NumPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		c := site.Corpus
		ind, trees := New(c, Options{}), corpustree.Of(c)
		for trial := 0; trial < 6; trial++ {
			labels := bitset.New(c.NumTexts())
			n := 1 + rng.Intn(5)
			for labels.Count() < n {
				labels.Add(rng.Intn(c.NumTexts()))
			}
			w, err := ind.Induce(labels)
			if err != nil {
				t.Fatal(err)
			}
			expr, err := RuleExpr(w)
			if err != nil {
				t.Fatalf("site %s labels %v: rule %q does not parse: %v",
					site.Name, labels.Indices(), w.Rule(), err)
			}
			viaXPath := c.EmptySet()
			for _, root := range trees.Roots {
				for _, node := range expr.Eval(root) {
					if ord := trees.OrdinalOf(node); ord >= 0 {
						viaXPath.Add(ord)
					}
				}
			}
			if !viaXPath.Equal(w.Extract()) {
				t.Fatalf("site %s (%s layout) labels %v: xpath eval %d nodes != extraction %d nodes; rule %q",
					site.Name, site.Layout, labels.Indices(),
					viaXPath.Count(), w.Extract().Count(), w.Rule())
			}
			// And the same rule matched on the token stream, page by page.
			compiled, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			for pi, p := range c.Pages {
				var want []string
				lo, hi := c.TextRange(pi)
				for ord := lo; ord < hi; ord++ {
					if w.Extract().Has(ord) {
						want = append(want, c.TextContent(ord))
					}
				}
				if got := compiled.ApplyHTML(p.HTML); !slices.Equal(got, want) {
					t.Fatalf("site %s page %d rule %q: ApplyHTML %q, extraction %q", site.Name, pi, w.Rule(), got, want)
				}
			}
		}
	}
}

// TestRepeatedAttributeRuleMatchesExtraction: a tag that repeats an
// attribute name keeps the first copy only, so the learner interns one
// feature for the name and the compiled rule — which, like Node.Attr,
// reads one value a name — selects what the wrapper extracts. When every
// copy became a feature the rule demanded both @class='rec' and
// @class='y' of one element, and its compiled form matched nothing.
func TestRepeatedAttributeRuleMatchesExtraction(t *testing.T) {
	page := func(name string) string {
		return `<html><body><ul><li class="other">Beta</li><li class="rec" class="y">` + name + `</li></ul></body></html>`
	}
	c := corpus.ParseHTML([]string{page("Alpha"), page("Gamma")})
	labels := c.MatchingText(func(s string) bool { return s == "Alpha" || s == "Gamma" })
	w, err := New(c, Options{}).Induce(labels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pg := range c.Pages {
		got = append(got, p.ApplyHTML(pg.HTML)...)
	}
	if want := c.Contents(w.Extract()); !slices.Equal(got, want) || len(want) != 2 {
		t.Fatalf("rule %q: compiled %q, extraction %q", w.Rule(), got, want)
	}
}

// TestOddAttributesSurviveTheRule: every HTML attribute of every ancestor is
// a feature, name and value verbatim, so whatever the tokenizer accepts the
// rendered rule must be able to say — a '.' in a name, the literal's own
// quote in a value — or a site can be learned and never stored. Native
// Extract ≡ ApplyPage ≡ ApplyHTML of the compiled rule, and the predicates
// still discriminate.
func TestOddAttributesSurviveTheRule(t *testing.T) {
	odd := [][2]string{
		{"data.x", "1"}, {"xml:lang", "en-GB"}, {"data-k_2", "v"},
		{"onload", "init('a')"}, {"title", `say "hi"`}, {"alt", `it's "both"`},
		{"data-b", "a]b[@c='d"}, {"empty", ""}, {"q", "'"}, {"qq", "''"},
	}
	page := func(mutate int) string {
		body := dom.NewElement("body")
		for i, kv := range odd {
			v := kv[1]
			if i == mutate {
				v += "x"
			}
			body.Attrs = append(body.Attrs, dom.Attr{Key: kv[0], Val: v})
		}
		ul := body.Append(dom.NewElement("ul"))
		for _, name := range []string{"Ann & Co", "Bob's"} {
			ul.Append(dom.NewElement("li")).Append(dom.NewText(name))
		}
		body.Append(dom.NewElement("p")).Append(dom.NewText("footer"))
		doc := dom.NewDocument()
		doc.Append(dom.NewElement("html")).Append(body)
		return dom.Serialize(doc)
	}
	c := corpus.ParseHTML([]string{page(-1), page(-1)})
	labels := c.EmptySet()
	for ord := 0; ord < c.NumTexts(); ord++ {
		if c.Element(c.TextParent(ord)).Tag == "li" {
			labels.Add(ord)
		}
	}
	w, err := New(c, Options{}).Induce(labels)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Extract().Equal(labels) {
		t.Fatalf("induced rule %q extracts %v, labels %v", w.Rule(), w.Extract().Indices(), labels.Indices())
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatalf("the learner's own rule does not compile: %v", err)
	}
	if p.Rule() != w.Rule() {
		t.Fatalf("compiled rule renders %q, learned %q", p.Rule(), w.Rule())
	}
	for _, kv := range odd {
		if want := "[@" + kv[0] + "=" + xpath.Quote(kv[1]) + "]"; !strings.Contains(p.Rule(), want) {
			t.Fatalf("rule %q lacks the predicate %s", p.Rule(), want)
		}
	}
	trees := corpustree.Of(c)
	for i, pg := range c.Pages {
		var native, viaPage []string
		lo, hi := c.TextRange(i)
		for ord := lo; ord < hi; ord++ {
			if w.Extract().Has(ord) {
				native = append(native, c.TextContent(ord))
			}
		}
		for _, n := range p.ApplyPage(trees.Roots[i]) {
			viaPage = append(viaPage, strings.TrimSpace(n.Data))
		}
		if viaHTML := p.ApplyHTML(pg.HTML); !slices.Equal(native, viaPage) || !slices.Equal(native, viaHTML) || len(native) != 2 {
			t.Fatalf("page %d: Extract %q, ApplyPage %q, ApplyHTML %q", i, native, viaPage, viaHTML)
		}
	}
	for i := range odd {
		if got := p.ApplyHTML(page(i)); len(got) != 0 {
			t.Fatalf("with %s changed the rule still extracts %q", odd[i][0], got)
		}
	}
}
