package dom_test

import (
	"strings"
	"testing"

	"autowrap/internal/dom"
	"autowrap/internal/testutil/refhtml"
)

// hostileTrees are hand-built trees covering what the serializer has to get
// right byte for byte: every escaped character in text and attribute
// values, raw script/style children, void elements (with and without
// smuggled children), empty and nested documents, and text at the very
// start and end of the output.
func hostileTrees() map[string]*dom.Node {
	doc := func(children ...*dom.Node) *dom.Node { return dom.NewDocument().AppendAll(children...) }
	el := func(tag string, kv ...string) *dom.Node { return dom.NewElement(tag, kv...) }
	raw := func(tag, data string) *dom.Node {
		n := el(tag)
		n.Raw = true
		n.Append(dom.NewText(data))
		return n
	}
	return map[string]*dom.Node{
		"empty document": doc(),
		"only text":      doc(dom.NewText("no markup")),
		"text escapes":   doc(el("p").AppendAll(dom.NewText(`a & b < c > d "e" 'f'`))),
		"only escapes":   doc(el("p").AppendAll(dom.NewText(`&<>&<>`))),
		"attr escapes":   doc(el("a", "title", `5<6 & "7">8`, "href", "x?a=1&b=2", "empty", "").AppendAll(dom.NewText("t"))),
		"raw children": doc(raw("script", `if (a<b && c>d) { x = "</div>"; }`), raw("style", `td > .x { color: red }`),
			el("p").AppendAll(dom.NewText("after & co"))),
		"void elements":      doc(el("p").AppendAll(dom.NewText("a"), el("br"), dom.NewText("b"), el("img", "src", "x.png"), el("hr"))),
		"void with children": doc(el("br").AppendAll(dom.NewText("smuggled")), dom.NewText("next")),
		"nested document":    doc(el("div").AppendAll(doc(dom.NewText("inner")), dom.NewText("outer"))),
		"text first and last": doc(dom.NewText("first"), el("table").AppendAll(el("tr").AppendAll(
			el("td").AppendAll(dom.NewText("1")), el("td").AppendAll(dom.NewText("2")))), dom.NewText("last")),
		"whitespace text":  doc(el("p").AppendAll(dom.NewText("  "), el("b").AppendAll(dom.NewText(" x ")))),
		"multibyte":        doc(el("p", "title", "é☃").AppendAll(dom.NewText("Aé☃ 😀 & ©"))),
		"detached subtree": el("td", "class", `"v"`).AppendAll(dom.NewText("<cell>")),
		"detached text":    dom.NewText("a<b"),
		"wide":             doc(el("ul").AppendAll(wideChildren(300)...)),
	}
}

func wideChildren(n int) []*dom.Node {
	out := make([]*dom.Node, n)
	for i := range out {
		out[i] = dom.NewElement("li").AppendAll(dom.NewText(strings.Repeat("x&", i%7)))
	}
	return out
}

// assertSerializersAgree holds every entry point of the one serializer to
// the reference implementation on one tree.
func assertSerializersAgree(t *testing.T, n *dom.Node) {
	t.Helper()
	wantHTML, wantSpans := refhtml.Serialize(n)

	if got := dom.Serialize(n); got != wantHTML {
		t.Fatalf("Serialize:\n got %q\nwant %q", got, wantHTML)
	}

	// AppendHTML after a prefix, into recycled storage: offsets are
	// positions in the returned buffer, spans come in document order.
	const prefix = "PREFIX"
	buf := append(make([]byte, 0, 8), prefix...)
	spans := make([]dom.TextSpan, 0, 1)
	buf = dom.AppendHTML(buf, n, &spans)
	if string(buf) != prefix+wantHTML {
		t.Fatalf("AppendHTML bytes:\n got %q\nwant %q", buf, prefix+wantHTML)
	}
	if len(spans) != len(wantSpans) {
		t.Fatalf("AppendHTML: %d spans, want %d", len(spans), len(wantSpans))
	}
	var order []*dom.Node
	n.Walk(func(d *dom.Node) bool {
		if _, ok := wantSpans[d]; ok {
			order = append(order, d)
		}
		return true
	})
	for i, sp := range spans {
		want := wantSpans[sp.Node]
		if sp.Node != order[i] || sp.Start != want[0]+len(prefix) || sp.End != want[1]+len(prefix) {
			t.Fatalf("AppendHTML span %d = %q [%d,%d), want %q %v shifted by %d",
				i, sp.Node.Data, sp.Start, sp.End, order[i].Data, want, len(prefix))
		}
	}
	if got := dom.AppendHTML(nil, n, nil); string(got) != wantHTML {
		t.Fatalf("AppendHTML without spans:\n got %q\nwant %q", got, wantHTML)
	}
}

func TestSerializerMatchesReference(t *testing.T) {
	for name, tree := range hostileTrees() {
		t.Run(name, func(t *testing.T) { assertSerializersAgree(t, tree) })
	}
}

// TestAppendHTMLAllocs: serializing into recycled storage allocates nothing
// — the property lr.Compiled.ApplyPage's per-page budget rests on.
func TestAppendHTMLAllocs(t *testing.T) {
	tree := hostileTrees()["wide"]
	var spans []dom.TextSpan
	buf := dom.AppendHTML(nil, tree, &spans)
	want := len(buf)
	avg := testing.AllocsPerRun(100, func() {
		spans = spans[:0]
		buf = dom.AppendHTML(buf[:0], tree, &spans)
	})
	if avg > 0 || len(buf) != want {
		t.Fatalf("AppendHTML into recycled storage: %.1f allocs per call, %d bytes (want 0, %d)", avg, len(buf), want)
	}
}
