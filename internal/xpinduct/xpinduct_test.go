package xpinduct

import (
	"fmt"
	"strings"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/enum"
	"autowrap/internal/testutil/corpustree"
	"autowrap/internal/wrapper"
)

func dealerSite() *corpus.Corpus {
	mk := func(rows ...[3]string) string {
		var sb strings.Builder
		sb.WriteString(`<html><body><div class="header"><h1>Dealer Locator</h1></div>`)
		sb.WriteString(`<div class="dealerlinks"><table>`)
		for _, r := range rows {
			fmt.Fprintf(&sb,
				`<tr><td><u>%s</u><br>%s</td><td>%s</td></tr>`, r[0], r[1], r[2])
		}
		sb.WriteString(`</table></div>`)
		sb.WriteString(`<div class="footer">Copyright 2010</div></body></html>`)
		return sb.String()
	}
	return corpus.ParseHTML([]string{
		mk([3]string{"PORTER FURNITURE", "201 HWY 30 West", "662-534-3672"},
			[3]string{"WOODLAND FURNITURE", "123 Main St", "662-456-4315"}),
		mk([3]string{"ACME CHAIRS", "9 Elm Ave", "555-111-2222"},
			[3]string{"BEDS AND MORE", "77 Oak Blvd", "555-333-4444"},
			[3]string{"SOFA CITY", "4 Pine Rd", "555-555-6666"}),
	})
}

func ords(t *testing.T, c *corpus.Corpus, contents ...string) *bitset.Set {
	t.Helper()
	s := c.EmptySet()
	for _, want := range contents {
		found := false
		for ord := 0; ord < c.NumTexts(); ord++ {
			if c.TextContent(ord) == want {
				s.Add(ord)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("content %q not found", want)
		}
	}
	return s
}

func TestInduceFromTwoNames(t *testing.T) {
	c := dealerSite()
	ind := New(c, Options{})
	// Labels from different row positions, so the child-number feature at
	// the <tr> level drops out of the intersection.
	w, err := ind.Induce(ords(t, c, "PORTER FURNITURE", "BEDS AND MORE"))
	if err != nil {
		t.Fatal(err)
	}
	got := c.Contents(w.Extract())
	if len(got) != 5 {
		t.Fatalf("extracted %v, want the 5 names", got)
	}
	for _, v := range got {
		if !strings.Contains(v, " ") || strings.Contains(v, "-") {
			t.Fatalf("unexpected extraction %q", v)
		}
	}
}

func TestRuleRendersAsXPath(t *testing.T) {
	c := dealerSite()
	ind := New(c, Options{})
	w, _ := ind.Induce(ords(t, c, "PORTER FURNITURE", "ACME CHAIRS"))
	rule := w.Rule()
	if !strings.Contains(rule, "u") || !strings.HasSuffix(rule, "/text()") {
		t.Fatalf("rule = %q", rule)
	}
	if !strings.Contains(rule, "dealerlinks") {
		t.Fatalf("rule should mention the ancestor class: %q", rule)
	}
}

// TestRuleEvalMatchesExtraction: the rendered xpath, evaluated by the xpath
// engine, selects exactly the wrapper's extraction. This ties the feature
// semantics to the concrete wrapper language.
func TestRuleEvalMatchesExtraction(t *testing.T) {
	c := dealerSite()
	ind, trees := New(c, Options{}), corpustree.Of(c)
	cases := [][]string{
		{"PORTER FURNITURE", "ACME CHAIRS"},
		{"PORTER FURNITURE"},
		{"201 HWY 30 West", "9 Elm Ave"},
		{"PORTER FURNITURE", "9 Elm Ave"},          // noisy mix
		{"Dealer Locator", "Copyright 2010"},       // junk mix
		{"662-534-3672", "555-111-2222"},           // phones (second td)
		{"PORTER FURNITURE", "WOODLAND FURNITURE"}, // same page
	}
	for _, labels := range cases {
		w, err := ind.Induce(ords(t, c, labels...))
		if err != nil {
			t.Fatal(err)
		}
		expr, err := RuleExpr(w)
		if err != nil {
			t.Fatalf("rule %q does not parse: %v", w.Rule(), err)
		}
		viaXPath := c.EmptySet()
		for _, root := range trees.Roots {
			for _, n := range expr.Eval(root) {
				if ord := trees.OrdinalOf(n); ord >= 0 {
					viaXPath.Add(ord)
				}
			}
		}
		if !viaXPath.Equal(w.Extract()) {
			t.Fatalf("labels %v: xpath eval (%d nodes) != feature extraction (%d nodes); rule %q",
				labels, viaXPath.Count(), w.Extract().Count(), w.Rule())
		}
	}
}

func TestNoiseOverGeneralizes(t *testing.T) {
	c := dealerSite()
	ind := New(c, Options{})
	clean, _ := ind.Induce(ords(t, c, "PORTER FURNITURE", "ACME CHAIRS"))
	noisy, _ := ind.Induce(ords(t, c, "PORTER FURNITURE", "ACME CHAIRS", "201 HWY 30 West"))
	if noisy.Extract().Count() <= clean.Extract().Count() {
		t.Fatalf("noisy wrapper should over-generalize: %d vs %d",
			noisy.Extract().Count(), clean.Extract().Count())
	}
}

func TestWellBehaved(t *testing.T) {
	c := dealerSite()
	ind := New(c, Options{})
	labels := ords(t, c, "PORTER FURNITURE", "ACME CHAIRS", "SOFA CITY",
		"9 Elm Ave", "Copyright 2010")
	if err := wrapper.CheckWellBehaved(ind, labels); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerationAgreement(t *testing.T) {
	c := dealerSite()
	ind := New(c, Options{})
	labels := ords(t, c, "PORTER FURNITURE", "ACME CHAIRS", "SOFA CITY",
		"9 Elm Ave", "662-534-3672", "Dealer Locator")
	naive, err := enum.Naive(ind, labels)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := enum.BottomUp(ind, labels, enum.Options{})
	if err != nil {
		t.Fatal(err)
	}
	td, err := enum.TopDown(ind, labels, enum.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(naive.Signatures()) != fmt.Sprint(bu.Signatures()) {
		t.Fatalf("BottomUp != Naive: %d vs %d", len(bu.Items), len(naive.Items))
	}
	if fmt.Sprint(naive.Signatures()) != fmt.Sprint(td.Signatures()) {
		t.Fatalf("TopDown != Naive: %d vs %d", len(td.Items), len(naive.Items))
	}
	if td.Calls != int64(len(naive.Items)) {
		t.Fatalf("Theorem 3 violated: %d calls for k=%d", td.Calls, len(naive.Items))
	}
	if bu.Calls > int64(len(naive.Items))*int64(labels.Count()) {
		t.Fatalf("Theorem 2 violated: %d calls", bu.Calls)
	}
}

func TestMaxDepthOption(t *testing.T) {
	c := dealerSite()
	full := New(c, Options{})
	shallow := New(c, Options{MaxDepth: 1})
	labels := ords(t, c, "PORTER FURNITURE", "ACME CHAIRS")
	wf, _ := full.Induce(labels)
	ws, _ := shallow.Induce(labels)
	// Depth-1 features (just the <u> parent) cannot exclude other text
	// wrapped in matching elements at other positions; the shallow wrapper
	// is at most as specific.
	if !wf.Extract().SubsetOf(ws.Extract()) {
		t.Fatal("shallow features must be weaker or equal")
	}
}

func TestIgnoreAttrs(t *testing.T) {
	c := corpus.ParseHTML([]string{
		`<div class="a" style="color:red"><span>x</span></div><div class="b" style="color:red"><span>y</span></div>`,
	})
	withStyle := New(c, Options{})
	noStyle := New(c, Options{IgnoreAttrs: []string{"style"}})
	labels := ords(t, c, "x")
	w1, _ := withStyle.Induce(labels)
	w2, _ := noStyle.Induce(labels)
	// Ignoring style removes a shared feature; class still separates.
	if w1.Extract().Count() != 1 || w2.Extract().Count() != 1 {
		t.Fatalf("counts: %d, %d", w1.Extract().Count(), w2.Extract().Count())
	}
	if strings.Contains(w2.Rule(), "style") {
		t.Fatalf("ignored attr leaked into rule: %q", w2.Rule())
	}
}

func TestEmptyLabelsRejected(t *testing.T) {
	c := dealerSite()
	ind := New(c, Options{})
	if _, err := ind.Induce(c.EmptySet()); err == nil {
		t.Fatal("expected error")
	}
}
