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
	n.SetAttr("class", "b")
	if v, _ := n.Attr("class"); v != "b" {
		t.Fatalf("SetAttr did not replace: %q", v)
	}
	n.SetAttr("new", "v")
	if v, _ := n.Attr("new"); v != "v" {
		t.Fatalf("SetAttr did not add: %q", v)
	}
}

func TestPreorderOrder(t *testing.T) {
	doc := sampleTree()
	var tags []string
	for _, n := range doc.Preorder() {
		tags = append(tags, n.Tag)
	}
	want := []string{"#document", "html", "body", "div", "tr", "td", "u",
		"#text", "br", "#text", "tr", "td", "#text"}
	if strings.Join(tags, " ") != strings.Join(want, " ") {
		t.Fatalf("preorder = %v, want %v", tags, want)
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
	if txt.Depth() != 6 {
		t.Fatalf("depth = %d, want 6", txt.Depth())
	}
}

func TestTextAggregation(t *testing.T) {
	doc := sampleTree()
	got := doc.Text()
	want := "PORTER FURNITURE 201 HWY.30 West WOODLAND FURNITURE"
	if got != want {
		t.Fatalf("Text() = %q, want %q", got, want)
	}
}

func TestPathString(t *testing.T) {
	doc := sampleTree()
	var txt *Node
	doc.Walk(func(n *Node) bool {
		if n.Type == TextNode && strings.Contains(n.Data, "WOODLAND") {
			txt = n
		}
		return true
	})
	got := txt.PathString()
	want := "html/body/div/tr[2]/td/#text"
	if got != want {
		t.Fatalf("PathString = %q, want %q", got, want)
	}
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	doc := sampleTree()
	c := doc.Clone()
	if c.Parent != nil {
		t.Fatal("clone should be detached")
	}
	if Serialize(c) != Serialize(doc) {
		t.Fatal("clone serialization differs")
	}
	// Mutating the clone must not affect the original.
	c.Children[0].Children[0].Append(NewText("extra"))
	if Serialize(c) == Serialize(doc) {
		t.Fatal("mutating clone affected original")
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

func TestRootFindsDocument(t *testing.T) {
	doc := sampleTree()
	var deepest *Node
	doc.Walk(func(n *Node) bool { deepest = n; return true })
	if deepest.Root() != doc {
		t.Fatal("Root did not find the document node")
	}
}
