package lr

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/gen"
	"autowrap/internal/htmlparse"
	"autowrap/internal/testutil/corpustree"
	"autowrap/internal/testutil/pincheck"
	"autowrap/internal/testutil/race"
	"autowrap/internal/testutil/refhtml"
)

// refApplyPage is the reference Compiled.ApplyPage is held to: the
// implementation it had before it matched over a pooled byte buffer — the
// page serialized to a fresh string with a span map (by the reference
// serializer, so nothing here shares code with the fast path), then a second
// walk that looks every extractable text node up in the map.
func refApplyPage(c *Compiled, root *dom.Node) []*dom.Node {
	html, spans := refhtml.Serialize(root)
	var out []*dom.Node
	root.Walk(func(n *dom.Node) bool {
		if !corpus.IsExtractableText(n) {
			return true
		}
		span, ok := spans[n]
		if !ok {
			return true
		}
		if span[0] >= len(c.Left) && span[1]+len(c.Right) <= len(html) &&
			html[span[0]-len(c.Left):span[0]] == c.Left &&
			html[span[1]:span[1]+len(c.Right)] == c.Right {
			out = append(out, n)
		}
		return true
	})
	return out
}

func sameNodes(a, b []*dom.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func nodeTexts(nodes []*dom.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Data
	}
	return out
}

// assertCompiledMatchesNative induces a wrapper from labels on c, compiles
// it, and asserts native Wrapper.Extract ≡ Compiled.ApplyPage ≡ reference,
// node for node and in order, and ≡ Compiled.ApplyHTML text for text, on
// every page of the corpus. It returns the
// number of nodes the wrapper extracts.
func assertCompiledMatchesNative(t *testing.T, name string, c *corpus.Corpus, ind *Inductor, labels []int) int {
	t.Helper()
	w, err := ind.Induce(c.SetOf(labels...))
	if err != nil {
		t.Fatalf("%s: induce: %v", name, err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	compiled := p
	trees := corpustree.Of(c)
	native := make([][]*dom.Node, len(c.Pages))
	w.Extract().ForEach(func(ord int) {
		native[c.PageOf(ord)] = append(native[c.PageOf(ord)], trees.Texts[ord])
	})
	total := 0
	for i, page := range c.Pages {
		got := compiled.ApplyPage(trees.Roots[i])
		if want := refApplyPage(compiled, trees.Roots[i]); !sameNodes(got, want) {
			t.Fatalf("%s page %d, %s: ApplyPage = %q, reference = %q", name, i, compiled.Rule(), nodeTexts(got), nodeTexts(want))
		}
		if !sameNodes(got, native[i]) {
			t.Fatalf("%s page %d, %s: ApplyPage = %q, native Extract = %q", name, i, compiled.Rule(), nodeTexts(got), nodeTexts(native[i]))
		}
		var trimmed []string
		for _, n := range got {
			trimmed = append(trimmed, strings.TrimSpace(n.Data))
		}
		if viaHTML := compiled.ApplyHTML(page.HTML); !slices.Equal(viaHTML, trimmed) {
			t.Fatalf("%s page %d, %s: ApplyHTML = %q, ApplyPage = %q", name, i, compiled.Rule(), viaHTML, trimmed)
		}
		total += len(got)
	}
	return total
}

// TestCompiledMatchesNativeOnDealerPages runs the three-way differential
// over generated dealer sites: both page shapes of the recorded benchmark,
// every drift step (all five name tags, list classes and layouts), the
// wrapper induced from the site's gold names.
func TestCompiledMatchesNativeOnDealerPages(t *testing.T) {
	pool := gen.BusinessPool(7, 4000, 0)
	shapes := []struct {
		name            string
		pages, min, max int
	}{{"small", 6, 3, 9}, {"large", 2, 150, 200}}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			for drift := 0; drift <= 6; drift++ {
				name := fmt.Sprintf("%s/seed%d/drift%d", sh.name, seed, drift)
				site, err := gen.DealerSite(gen.DealerConfig{Seed: seed, Pool: pool, Drift: drift,
					NumPages: sh.pages, MinRecords: sh.min, MaxRecords: sh.max})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				gold := site.Gold["name"].Indices()
				n := assertCompiledMatchesNative(t, name, site.Corpus, New(site.Corpus, 0), gold)
				if n < len(gold) {
					t.Fatalf("%s: wrapper extracts %d nodes, fewer than its %d labels", name, n, len(gold))
				}
			}
		}
	}
}

// hostileHTML are the inputs where a serializer or a span computation
// would go wrong first: characters that serialize longer than they parse,
// attribute values needing &quot;, raw script/style text (serialized
// unescaped, never extractable), void elements, and text at the very start
// and very end of the page.
var hostileHTML = map[string]string{
	"escaped text":   `<p>a &amp; b</p><p>5 &lt; 6</p><p>7 &gt; 2</p><p>say "hi" &amp; 'bye'</p><p>a &amp; b</p>`,
	"attr quotes":    `<a title="say &quot;x&quot;" href='?a=1&amp;b=2'>one</a><a title="say &quot;x&quot;">two</a><a title=plain>three</a>`,
	"raw children":   `<p>before</p><script>if (a<b && c>d) { x = "<p>fake</p>"; }</script><style>p > b { color: red }</style><p>after</p>`,
	"void elements":  `<p>a<br>b<img src="x.png">c<hr>d</p><input value="v">e`,
	"text at edges":  `first<b>mid</b>last`,
	"only text":      `just text`,
	"empty":          ``,
	"same contexts":  `<ul><li>x</li><li>x</li><li>y</li></ul><ul><li>x</li></ul>`,
	"nested lookups": `<table><tr><td class="k">n</td><td class="v">1 &lt; 2</td></tr><tr><td class="k">m</td><td class="v">3 &gt; 2</td></tr></table>`,
	"multibyte":      `<p title="é">Aé☃ 😀</p><p title="é">&copy; 2011</p>`,
}

// TestCompiledMatchesNativeOnHostilePages: on every hostile page, for every
// extractable text node taken as the single label, the induced wrapper's
// three implementations agree (and extract at least the label).
func TestCompiledMatchesNativeOnHostilePages(t *testing.T) {
	for name, src := range hostileHTML {
		c := corpus.ParseHTML([]string{src, hostileHTML["escaped text"]})
		for _, maxContext := range []int{0, 3} {
			ind := New(c, maxContext)
			for ord := 0; ord < c.NumTexts(); ord++ {
				label := fmt.Sprintf("%s/ctx%d/label%d", name, maxContext, ord)
				if n := assertCompiledMatchesNative(t, label, c, ind, []int{ord}); n == 0 {
					t.Fatalf("%s: wrapper does not extract its own label", label)
				}
			}
		}
	}
}

// TestCompiledMatchesReferenceOnHostileDelimiters crosses the hostile pages
// (plus a hand-built tree no parser emits) with delimiter pairs no inductor
// would produce: empty on either or both sides, longer than the whole page,
// matching only at offset 0 or only at the end of the page, and ones that
// only match if text or attributes were serialized unescaped.
func TestCompiledMatchesReferenceOnHostileDelimiters(t *testing.T) {
	delims := []Compiled{
		{"", ""}, {">", ""}, {"", "<"}, {">", "<"},
		{"<p>", "</p>"}, {"<li>", "</li>"}, {`"v">`, "</td>"},
		{"", "<b>mid</b>last"}, {"first<b>mid</b>", ""}, {"</b>", ""}, {"", "<b>"},
		{strings.Repeat("x", 4096), ""}, {"", strings.Repeat("x", 4096)}, {strings.Repeat("<p>", 2000), "</p>"},
		{`title="say "x"">`, "<"}, {`title="say &quot;x&quot;">`, "<"}, {"<p>5 < 6", ""}, {"<p>", " &amp; b</p>"},
		{"<br>", "<img"}, {`<img src="x.png">`, "<hr>"}, {`<input value="v">`, ""}, {"</style><p>", "</p>"},
		{"<script>", "</script>"}, {"<br>", "</br>"},
	}
	trees := map[string]*dom.Node{}
	for name, src := range hostileHTML {
		trees[name] = htmlparse.Parse(src)
	}
	br := dom.NewElement("br").AppendAll(dom.NewText("smuggled"))
	trees["void with children"] = dom.NewDocument().AppendAll(br, dom.NewText("next"))
	trees["detached text"] = dom.NewText("a<b")

	matched := 0
	for name, root := range trees {
		for i := range delims {
			c := &delims[i]
			got, want := c.ApplyPage(root), refApplyPage(c, root)
			if !sameNodes(got, want) {
				t.Fatalf("%s, %s: ApplyPage = %q, reference = %q", name, c.Rule(), nodeTexts(got), nodeTexts(want))
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("%s, %s: ApplyPage nil-ness %v, reference %v", name, c.Rule(), got == nil, want == nil)
			}
			matched += len(got)
		}
	}
	if matched < 50 {
		t.Fatalf("only %d matches over the whole table: the delimiters do not exercise the matcher", matched)
	}

	// The pooled tree the serve path hands ApplyPage behaves like any other.
	tr := htmlparse.AcquireTree()
	defer tr.Release()
	for name, src := range hostileHTML {
		root := tr.Parse(src)
		for i := range delims {
			c := &delims[i]
			if got, want := c.ApplyPage(root), refApplyPage(c, root); !sameNodes(got, want) {
				t.Fatalf("pooled %s, %s: ApplyPage = %q, reference = %q", name, c.Rule(), nodeTexts(got), nodeTexts(want))
			}
		}
	}
}

// TestLRApplyAllocBudget: in steady state ApplyPage allocates the result
// slice and nothing else — serialization and spans live in pooled scratch.
// The budget is 2 to leave room for one growth step of the result.
func TestLRApplyAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	site, err := gen.DealerSite(gen.DealerConfig{Seed: 1, Pool: gen.BusinessPool(7, 4000, 0),
		NumPages: 1, MinRecords: 150, MaxRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	c := &Compiled{Left: ">", Right: "<"}
	root := htmlparse.Parse(site.Corpus.Pages[0].HTML)
	want := len(refApplyPage(c, root))
	if want < 150 {
		t.Fatalf("fixture matches only %d nodes", want)
	}
	c.ApplyPage(root) // warm the scratch pool
	avg := testing.AllocsPerRun(100, func() {
		if got := len(c.ApplyPage(root)); got != want {
			t.Fatalf("extraction changed under measurement: %d nodes, want %d", got, want)
		}
	})
	if avg > 2 {
		t.Fatalf("ApplyPage allocates %.1f times per page, budget is 2", avg)
	}
}

// TestStreamWritesTheSerialization: the bytes the ApplyHTML handler writes
// from the parser's events are dom.AppendHTML's over the parsed tree, and
// its spans are the extractable texts' — the premise of matching the
// delimiters without a tree. (Every rule against every page, both
// languages, is internal/htmlparse's tree ≡ stream table and fuzz.)
func TestStreamWritesTheSerialization(t *testing.T) {
	pages := map[string]string{}
	for name, src := range hostileHTML {
		pages[name] = src
	}
	site, err := gen.DealerSite(gen.DealerConfig{Seed: 3, Pool: gen.BusinessPool(7, 400, 0), NumPages: 2, Drift: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range site.Corpus.Pages {
		pages[fmt.Sprintf("generated %d", i)] = p.HTML
	}
	for name, src := range pages {
		root := htmlparse.Parse(src)
		var spans []dom.TextSpan
		want := dom.AppendHTML(nil, root, &spans)
		sc := new(applyScratch)
		htmlparse.Stream(src, sc)
		if string(sc.html) != string(want) {
			t.Fatalf("%s: stream wrote\n  %q\ntree serializes to\n  %q", name, sc.html, want)
		}
		k := 0
		for _, sp := range spans {
			if !corpus.IsExtractableText(sp.Node) {
				continue
			}
			if k >= len(sc.spans) || sc.spans[k].Start != sp.Start || sc.spans[k].End != sp.End ||
				sc.texts[k] != strings.TrimSpace(sp.Node.Data) {
				t.Fatalf("%s: extractable text %d %q at [%d,%d) missing from the stream's spans", name, k, sp.Node.Data, sp.Start, sp.End)
			}
			k++
		}
		if k != len(sc.spans) {
			t.Fatalf("%s: stream kept %d spans, the tree has %d extractable texts", name, len(sc.spans), k)
		}
	}
}

// TestLRApplyHTMLAllocBudget is TestLRApplyAllocBudget for the path serving
// takes: the result slice, and nothing per record — texts alias the page.
func TestLRApplyHTMLAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	page := "<html><body><table>" +
		strings.Repeat("<tr><td class='k'>label</td><td class='v'>value text</td></tr>", 160) +
		"</table></body></html>"
	c := &Compiled{Left: `"v">`, Right: "</td>"}
	if got := c.ApplyHTML(page); len(got) != 160 || got[0] != "value text" {
		t.Fatalf("fixture extraction = %q", got)
	}
	if avg := testing.AllocsPerRun(100, func() { c.ApplyHTML(page) }); avg > 1 {
		t.Fatalf("ApplyHTML allocates %.1f times per page, budget is 1", avg)
	}
}

// TestReleasedScratchDoesNotPinSource: the stream's spans carry texts that
// alias the page; a scratch back in its pool must not.
func TestReleasedScratchDoesNotPinSource(t *testing.T) {
	pincheck.Freed(t, pincheck.Page, func(page string) any {
		sc := new(applyScratch)
		htmlparse.Stream(page, sc)
		if len(sc.texts) < 4 {
			t.Fatalf("fixture kept %q", sc.texts)
		}
		sc.release()
		return sc
	})
}
