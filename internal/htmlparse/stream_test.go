package htmlparse_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"autowrap/internal/core"
	"autowrap/internal/gen"
	"autowrap/internal/lr"
	"autowrap/internal/store"
	"autowrap/internal/testutil/refapply"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// Every rule has two evaluations: ApplyPage on the tree Parse builds, and
// ApplyHTML on the parser's events with no tree. The contract
// (wrapper.Portable) is that the second is the first, trimmed; refapply
// spells that out and the tests below hold both languages to it.

func assertStreamMatchesTree(t *testing.T, name string, p wrapper.Portable, html string) int {
	t.Helper()
	got, want := p.ApplyHTML(html), refapply.Texts(p, html)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: rule %s\n  ApplyHTML %q\n  ApplyPage %q\n  page %.300q", name, p.Rule(), got, want, html)
	}
	return len(got)
}

func mustXPath(t testing.TB, rule string) wrapper.Portable {
	t.Helper()
	p, err := xpinduct.CompileRule(rule)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// handRules leave the shape the learner emits (one leading '//', then child
// steps with a child number each): descendant steps in the interior, which
// select nested elements and send Eval to evalSlow; wildcards with a child
// number; raw-text parents; a repeated attribute; and more steps than one
// machine word of states.
func handRules(t testing.TB) []wrapper.Portable {
	rules := []wrapper.Portable{
		&lr.Compiled{Left: "", Right: ""},
		&lr.Compiled{Left: ">", Right: ""},
		&lr.Compiled{Left: "", Right: "</a>"},
		&lr.Compiled{Left: "<td>", Right: "</td>"},
		&lr.Compiled{Left: `">`, Right: "<"},
		&lr.Compiled{Left: "<b></b>", Right: "tail"},
	}
	for _, rule := range []string{
		`//text()`,
		`//div//text()`,
		`//*[2]/text()`,
		`//*[1]/*[2]/text()`,
		`//ul//li//a/text()`,
		`//li/ul/li/a/text()`,
		`//script/text()`,
		`//script//text()`,
		`//div[@class='a']/text()`,
		`//div[@class='b']/text()`,
		`//a[@href='x']/text()`,
		`//td[2]/text()`,
		`//tr[2]/td[1]/text()`,
		`//table/tr/td/text()`,
		`/html/body/p/text()`,
		`/p/text()`,
		`//a//b/text()`,
		`//a[600]/text()`,
		`//a/a/a/b/text()`,
		`//div/td/text()`,
		`//span[2]/text()`,
		`//p[1]/text()`,
		"//div" + strings.Repeat("/div", 59) + "/text()",
		"//a" + strings.Repeat("/a", 199) + "/text()",
		strings.Repeat("//*", 200) + "/text()",
		strings.Repeat("//a", 64) + "/b/text()",
	} {
		rules = append(rules, mustXPath(t, rule))
	}
	return rules
}

func TestStreamMatchesTreeOnOddMarkup(t *testing.T) {
	rules := handRules(t)
	matched := 0
	for name, html := range adversarialHTML {
		for _, p := range rules {
			matched += assertStreamMatchesTree(t, name, p, html)
		}
	}
	if matched < 200 {
		t.Fatalf("the rules selected %d texts in all: the table compares little but empty results", matched)
	}
}

// learned compiles the rule an inductor gives on a site's gold names.
func learned(t *testing.T, ind wrapper.Inductor, site *gen.Site) wrapper.Portable {
	t.Helper()
	w, err := core.Naive(ind, site.Gold["name"])
	if err != nil {
		t.Fatal(err)
	}
	p, err := store.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStreamMatchesTreeOnGeneratedSites runs the learner's own rules, and
// the hand-written ones, over every dealer layout, drifted 0 to 3 template
// mutations, at the small page size and at extract_bulk's.
func TestStreamMatchesTreeOnGeneratedSites(t *testing.T) {
	pool := gen.BusinessPool(11, 600, 0)
	hand := handRules(t)
	layouts := map[string]bool{}
	records := 0
	for seed := int64(1); seed <= 10; seed++ {
		for drift := 0; drift <= 3; drift++ {
			for _, size := range []struct{ pages, min, max int }{{4, 0, 0}, {2, 150, 200}} {
				site, err := gen.DealerSite(gen.DealerConfig{Seed: seed, Pool: pool, Drift: drift,
					NumPages: size.pages, MinRecords: size.min, MaxRecords: size.max})
				if err != nil {
					t.Fatal(err)
				}
				layouts[site.Layout] = true
				rules := append([]wrapper.Portable{
					learned(t, xpinduct.New(site.Corpus, xpinduct.Options{}), site),
					learned(t, lr.New(site.Corpus, 0), site),
				}, hand...)
				for i, pg := range site.Corpus.Pages {
					name := fmt.Sprintf("seed %d drift %d %s page %d", seed, drift, site.Layout, i)
					for k, p := range rules {
						n := assertStreamMatchesTree(t, name, p, pg.HTML)
						if k < 2 {
							records += n
						}
					}
				}
			}
		}
	}
	if len(layouts) < 5 || records < 10000 {
		t.Fatalf("covered layouts %v and %d learned records: the seeds no longer reach every layout", layouts, records)
	}
}

// fuzzRules turns one fuzzed string into a rule of each language: the
// string itself as an xpath when it compiles, and its halves around the
// first '|' as an LR delimiter pair.
func fuzzRules(rule string) []wrapper.Portable {
	left, right, _ := strings.Cut(rule, "|")
	rules := []wrapper.Portable{&lr.Compiled{Left: left, Right: right}}
	if p, err := xpinduct.CompileRule(rule); err == nil {
		rules = append(rules, p)
	}
	return rules
}

// FuzzStreamMatchesTree is the differential check behind the serving path:
// on any page and any rule, ApplyHTML equals the trimmed ApplyPage of the
// parsed page, for XPATH and for LR.
func FuzzStreamMatchesTree(f *testing.F) {
	seedRules := []string{
		`//text()`, `//*[2]/text()`, `//ul//li//a/text()`, `//div[@class='a']/text()`, `//td[2]/text()`,
		`//a/a/a/b/text()`, `//p/text()`, `<td>|</td>`, `>|`, `|</a>`, `|`, `">|<`,
	}
	for _, html := range adversarialHTML {
		for _, rule := range seedRules {
			f.Add(html, rule)
		}
	}
	f.Fuzz(func(t *testing.T, html, rule string) {
		for _, p := range fuzzRules(rule) {
			assertStreamMatchesTree(t, "fuzz", p, html)
		}
	})
}

// FuzzParse holds the parser to the round-trip property on arbitrary input:
// what it builds is a fixed point of serialize → reparse, byte for byte and
// node for node, and the serializer agrees with its reference.
func FuzzParse(f *testing.F) {
	for _, html := range adversarialHTML {
		f.Add(html)
	}
	f.Fuzz(func(t *testing.T, src string) { assertRoundTrip(t, "fuzz", src) })
}
