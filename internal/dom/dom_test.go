package dom

import (
	"strings"
	"testing"
)

func sampleTree() *Node {
	doc := NewDocument()
	html := doc.Append(NewElement("html"))
	body := html.Append(NewElement("body"))
	div := body.Append(NewElement("div", "class", "dealerlinks"))
	tr1 := div.Append(NewElement("tr"))
	td1 := tr1.Append(NewElement("td"))
	u := td1.Append(NewElement("u"))
	u.Append(NewText("PORTER FURNITURE"))
	td1.Append(NewElement("br"))
	td1.Append(NewText("201 HWY.30 West"))
	tr2 := div.Append(NewElement("tr"))
	td2 := tr2.Append(NewElement("td"))
	td2.Append(NewText("WOODLAND FURNITURE"))
	return doc
}

func TestAppendSetsParent(t *testing.T) {
	p := NewElement("div")
	c := NewText("x")
	p.Append(c)
	if c.Parent != p {
		t.Fatal("Append did not set parent")
	}
	if len(p.Children) != 1 || p.Children[0] != c {
		t.Fatal("Append did not attach child")
	}
}

func TestAttrAccess(t *testing.T) {
	n := NewElement("div", "class", "a", "id", "x")
	if v, ok := n.Attr("class"); !ok || v != "a" {
		t.Fatalf("Attr(class) = %q, %v", v, ok)
	}
	if _, ok := n.Attr("missing"); ok {
		t.Fatal("Attr(missing) should be absent")
	}
}

func TestChildNumberCountsSameTagOnly(t *testing.T) {
	p := NewElement("div")
	a1 := p.Append(NewElement("a"))
	b1 := p.Append(NewElement("b"))
	a2 := p.Append(NewElement("a"))
	b2 := p.Append(NewElement("b"))
	if a1.ChildNumber() != 1 || a2.ChildNumber() != 2 {
		t.Fatalf("a child numbers = %d, %d", a1.ChildNumber(), a2.ChildNumber())
	}
	if b1.ChildNumber() != 1 || b2.ChildNumber() != 2 {
		t.Fatalf("b child numbers = %d, %d", b1.ChildNumber(), b2.ChildNumber())
	}
}

func TestChildNumberDetachedAndText(t *testing.T) {
	if NewElement("div").ChildNumber() != 0 {
		t.Fatal("detached element should have child number 0")
	}
	p := NewElement("div")
	txt := p.Append(NewText("x"))
	if txt.ChildNumber() != 0 {
		t.Fatal("text node should have child number 0")
	}
}

func TestAncestorsExcludesDocument(t *testing.T) {
	doc := sampleTree()
	var txt *Node
	doc.Walk(func(n *Node) bool {
		if n.Type == TextNode && strings.Contains(n.Data, "PORTER") {
			txt = n
		}
		return true
	})
	if txt == nil {
		t.Fatal("text node not found")
	}
	var tags []string
	for _, a := range txt.Ancestors() {
		tags = append(tags, a.Tag)
	}
	want := "u td tr div body html"
	if strings.Join(tags, " ") != want {
		t.Fatalf("ancestors = %v, want %v", tags, want)
	}
}

func TestSerializeEscaping(t *testing.T) {
	doc := NewDocument()
	d := doc.Append(NewElement("div", "title", `a"b<c`))
	d.Append(NewText("x < y & z > w"))
	got := Serialize(doc)
	want := `<div title="a&quot;b&lt;c">x &lt; y &amp; z &gt; w</div>`
	if got != want {
		t.Fatalf("Serialize = %q, want %q", got, want)
	}
}

func TestSerializeVoidElements(t *testing.T) {
	doc := NewDocument()
	d := doc.Append(NewElement("div"))
	d.Append(NewElement("br"))
	d.Append(NewElement("img", "src", "x.png"))
	got := Serialize(doc)
	want := `<div><br><img src="x.png"></div>`
	if got != want {
		t.Fatalf("Serialize = %q, want %q", got, want)
	}
}

func TestSerializeWithSpansLocatesText(t *testing.T) {
	doc := sampleTree()
	var spans []TextSpan
	html := AppendHTML(nil, doc, &spans)
	count := 0
	doc.Walk(func(n *Node) bool {
		if n.Type == TextNode {
			if count == len(spans) || spans[count].Node != n {
				t.Fatalf("missing span for %q", n.Data)
			}
			span := spans[count]
			count++
			if string(html[span.Start:span.End]) != string(appendEscaped(nil, n.Data, false)) {
				t.Fatalf("span %v of %q = %q", span, n.Data, html[span.Start:span.End])
			}
		}
		return true
	})
	if count != 3 {
		t.Fatalf("expected 3 text nodes, got %d", count)
	}
}

func TestRawScriptSerializesUnescaped(t *testing.T) {
	doc := NewDocument()
	s := doc.Append(NewElement("script"))
	s.Raw = true
	s.Append(NewText("if (a < b && c > d) {}"))
	got := Serialize(doc)
	want := "<script>if (a < b && c > d) {}</script>"
	if got != want {
		t.Fatalf("Serialize = %q, want %q", got, want)
	}
}
