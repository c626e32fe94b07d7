package htmlparse_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autowrap/internal/dataset"
	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
	"autowrap/internal/testutil/refhtml"
)

// The round-trip property: every parsed tree is a fixed point of
// serialize -> reparse. Extraction on stored pages depends on it — a
// compiled wrapper is applied to a reparse of the serialized page, and if
// that tree differed from the original (split text runs, shifted
// attributes), text-node identity and ordinals would silently drift.
//
// For arbitrary input src the first Parse may normalize (drop comments,
// collapse whitespace, merge text runs), so the property is stated on the
// parse's output: t1 := Parse(src); Parse(Serialize(t1)) ≡ t1, and the
// serializations are byte-identical.

// treeEqual compares two DOM trees structurally and returns the path of
// the first difference.
func treeEqual(a, b *dom.Node, path string) (bool, string) {
	if a.Type != b.Type || a.Tag != b.Tag || a.Data != b.Data || a.Raw != b.Raw {
		return false, fmt.Sprintf("%s: node %v/%q/%q vs %v/%q/%q",
			path, a.Type, a.Tag, a.Data, b.Type, b.Tag, b.Data)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false, fmt.Sprintf("%s: %d vs %d attrs", path, len(a.Attrs), len(b.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false, fmt.Sprintf("%s: attr %d %v vs %v", path, i, a.Attrs[i], b.Attrs[i])
		}
	}
	if len(a.Children) != len(b.Children) {
		return false, fmt.Sprintf("%s: %d vs %d children", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if ok, diff := treeEqual(a.Children[i], b.Children[i],
			fmt.Sprintf("%s/%s[%d]", path, a.Children[i].Tag, i)); !ok {
			return false, diff
		}
	}
	return true, ""
}

// assertMatchesReference holds dom's serializer to the reference one on a
// parsed tree: the same bytes, and the same span for every text node, in
// document order.
func assertMatchesReference(t *testing.T, name string, root *dom.Node) {
	t.Helper()
	want, wantSpans := refhtml.Serialize(root)
	var spans []dom.TextSpan
	got := dom.AppendHTML(nil, root, &spans)
	if string(got) != want {
		t.Fatalf("%s: serializer differs from reference:\n got %q\nwant %q", name, got, want)
	}
	if len(spans) != len(wantSpans) {
		t.Fatalf("%s: %d text spans, reference has %d", name, len(spans), len(wantSpans))
	}
	i := 0
	root.Walk(func(n *dom.Node) bool {
		if w, ok := wantSpans[n]; ok {
			if sp := spans[i]; sp.Node != n || [2]int{sp.Start, sp.End} != w {
				t.Fatalf("%s: span %d = %q [%d,%d), reference %q %v", name, i, sp.Node.Data, sp.Start, sp.End, n.Data, w)
			}
			i++
		}
		return true
	})
}

func assertRoundTrip(t *testing.T, name, src string) {
	t.Helper()
	t1 := htmlparse.Parse(src)
	assertMatchesReference(t, name, t1)
	h1 := dom.Serialize(t1)
	t2 := htmlparse.Parse(h1)
	h2 := dom.Serialize(t2)
	if h1 != h2 {
		t.Fatalf("%s: serialization not stable:\n  first:  %q\n  second: %q", name, h1, h2)
	}
	if ok, diff := treeEqual(t1, t2, ""); !ok {
		t.Fatalf("%s: reparse changed the tree at %s\n  serialized: %q", name, diff, h1)
	}
}

// adversarialHTML is the package's odd-markup corpus: the messy constructs
// the tolerant parser accepts. The round-trip table runs over it, the
// tree ≡ stream table applies every hand-written rule to it, and both fuzz
// targets start from it.
var adversarialHTML = map[string]string{
	"plain":            `<html><body><p>hello</p></body></html>`,
	"lone lt in text":  `<p>5<6 and 7>2</p>`,
	"comment in text":  `<p>a<!-- split -->b</p>`,
	"doctype and text": `<!DOCTYPE html><p>a</p>text`,
	"stray close":      `<div>a</span>b</div>`,
	"unclosed tags":    `<div><b>x<i>y`,
	"auto close":       `<table><tr><td>a<td>b<tr><td>c</table>`,
	"void elements":    `<p>a<br>b<img src="x.png">c<hr></p>`,
	"self closing":     `<div/><span/>text`,
	"entities":         `<p>&amp;&lt;&gt;&quot;&copy;&deg;&#65;&#x42;&unknown;</p>`,
	"nbsp runs":        `<p>a&nbsp;&nbsp;b</p>`,
	"attr quoting":     `<a href='x.html' title="a&quot;b" data-x=bare empty>t</a>`,
	"attr entity":      `<a title="5&lt;6&amp;7">x</a>`,
	"attr lt":          `<a title="a<b">x</a>`,
	"script raw":       `<script>if (a<b && c>d) { x = "</div>"; }</script><p>after</p>`,
	"style raw":        `<style>td > .x { color: red }</style><td class="x">y</td>`,
	"whitespace noise": "<div>\n\t  <span> padded   text </span>\n  </div>",
	"mixed case tags":  `<DIV CLASS="Big"><SpAn>x</sPaN></DIV>`,
	"deep nesting":     strings.Repeat("<div>", 60) + "core" + strings.Repeat("</div>", 60),
	"table numbers":    `<table><tr><td>1</td><td>2</td></tr><tr><td>3</td><td>4</td></tr></table>`,
	"text after html":  `<html><body>x</body></html>trailing`,
	"only text":        `no markup at all`,
	"lt at end":        `text ends <`,
	"empty":            ``,
	"unterminated tag": `<div class="x`,
	"bad comment":      `<p>a<!-- never closed`,
	"nested lists":     `<ul><li><a>1</a><ul><li><a>2</a><ul><li><a>3</a></li></ul></li></ul></li><li><a>4</a></li></ul>`,
	"duplicate attrs":  `<div class="a" class="b">first</div><div class="b" class="a">second</div>`,
	"unicode blanks":   "<td>&#160;</td><td>\u3000padded\u3000</td><td>&#xA0;x</td>",
	"mangled script":   `<script>a</scriptx>b &amp; c<b>in</b></script><p>after</p>`,
	"form feed":        "<a href=x\fid=y>t\fu</a>",
	"split entity":     `<p>&l<!-- -->t; &am<!---->p;</p>`,
	"leaf siblings":    `<div/>text<br>more<span>s</span><span>t</span>`,
	"past max depth":   strings.Repeat("<a>", 600) + "deep<b>leaf</b>tail</zzz>" + strings.Repeat("</a>", 600) + "<p>after</p>",
	"script too deep":  strings.Repeat("<div>", 512) + "<script>x<y &amp;</script><td>in",
}

// TestRoundTripAdversarialHTML covers the messy constructs the tolerant
// parser accepts.
func TestRoundTripAdversarialHTML(t *testing.T) {
	for name, src := range adversarialHTML {
		t.Run(name, func(t *testing.T) { assertRoundTrip(t, name, src) })
	}
}

// TestRoundTripGeneratedSites runs the property over every page of the
// three synthetic evaluation datasets — the pages extraction actually
// stores and re-parses.
func TestRoundTripGeneratedSites(t *testing.T) {
	dealers, err := dataset.Dealers(dataset.DealersOptions{NumSites: 6, NumPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	disc, err := dataset.Disc(dataset.DiscOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prods, err := dataset.Products(dataset.ProductsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ds := range []*dataset.Dataset{dealers, disc, prods} {
		for _, site := range ds.Sites {
			for i, page := range site.Corpus.Pages {
				name := fmt.Sprintf("%s/%s/p%d", ds.Name, site.Name, i)
				// The corpus's canonical HTML is itself a serialization, so
				// the property must hold starting from it. That the reparse
				// indexes as the page the corpus built from the generator's
				// source is corpus's TestIndexMatchesReference.
				t1 := htmlparse.Parse(page.HTML)
				if h := dom.Serialize(t1); h != page.HTML {
					t.Fatalf("%s: serialization not stable", name)
				}
				assertMatchesReference(t, name, t1)
				checked++
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d pages checked; dataset options too small", checked)
	}
}

// TestRoundTripRandomMarkup throws seeded pseudo-random tag soup at the
// parser: whatever tree comes out must be a serialize/reparse fixed point.
func TestRoundTripRandomMarkup(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tags := []string{"div", "span", "td", "tr", "table", "b", "p", "li", "br", "script"}
	frags := []string{
		"text", " ", "a&amp;b", "<", ">", "&", "&#65;", "&bogus;", "x<y",
		"<!--c-->", "</", "<!", "  spaced  ", "\n\t", "'quote'", `"dq"`, "&nbsp;",
	}
	for i := 0; i < 300; i++ {
		var sb strings.Builder
		n := 1 + rng.Intn(40)
		for j := 0; j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				tag := tags[rng.Intn(len(tags))]
				sb.WriteString("<" + tag)
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&sb, ` class="c%d"`, rng.Intn(3))
				}
				if rng.Intn(5) == 0 {
					fmt.Fprintf(&sb, ` data-x=%d`, rng.Intn(10))
				}
				sb.WriteString(">")
			case 1:
				sb.WriteString("</" + tags[rng.Intn(len(tags))] + ">")
			default:
				sb.WriteString(frags[rng.Intn(len(frags))])
			}
		}
		src := sb.String()
		t.Run(fmt.Sprintf("soup%03d", i), func(t *testing.T) {
			assertRoundTrip(t, src, src)
		})
	}
}
