package htmlparse_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"autowrap/internal/dom"
	"autowrap/internal/gen"
	"autowrap/internal/htmlparse"
	"autowrap/internal/testutil/race"
)

// refBuilder is the tree builder as it was before slabs: every node its own
// heap object, Children grown by Append and Attrs copied per element. The
// slab builder behind Parse and Tree.Parse is held to it node for node.
type refBuilder struct{ stack []*dom.Node }

func refParse(src string) *dom.Node {
	doc := &dom.Node{Type: dom.DocumentNode}
	htmlparse.Stream(src, &refBuilder{stack: []*dom.Node{doc}})
	return doc
}

func (b *refBuilder) StartElement(tag string, attrs []dom.Attr, container bool) {
	el := &dom.Node{Type: dom.ElementNode, Tag: tag, Raw: dom.IsRaw(tag)}
	el.Attrs = append(el.Attrs, attrs...)
	b.stack[len(b.stack)-1].Append(el)
	if container {
		b.stack = append(b.stack, el)
	}
}

func (b *refBuilder) EndElement(string) { b.stack = b.stack[:len(b.stack)-1] }

func (b *refBuilder) WantText() bool { return true }

func (b *refBuilder) Text(data string, raw bool) {
	b.stack[len(b.stack)-1].Append(&dom.Node{Type: dom.TextNode, Data: data})
}

// sameTree reports the first difference between two trees: node type, tag,
// data, attributes, raw flag, parent and child order.
func sameTree(got, want *dom.Node, path string) error {
	if got.Type != want.Type || got.Tag != want.Tag || got.Data != want.Data || got.Raw != want.Raw {
		return fmt.Errorf("%s: node %v/%q/%q/%v, reference %v/%q/%q/%v",
			path, got.Type, got.Tag, got.Data, got.Raw, want.Type, want.Tag, want.Data, want.Raw)
	}
	if !slices.Equal(got.Attrs, want.Attrs) {
		return fmt.Errorf("%s: attributes %v, reference %v", path, got.Attrs, want.Attrs)
	}
	if len(got.Children) != len(want.Children) {
		return fmt.Errorf("%s: %d children, reference %d", path, len(got.Children), len(want.Children))
	}
	for i, c := range got.Children {
		p := fmt.Sprintf("%s/%s[%d]", path, c.Tag, i)
		if c.Parent != got {
			return fmt.Errorf("%s: parent is not the node it is a child of", p)
		}
		if err := sameTree(c, want.Children[i], p); err != nil {
			return err
		}
	}
	return nil
}

// assertMatchesRefBuilder parses src with Parse and with a pooled workspace
// already dirtied by another page, and holds both trees to the reference
// builder's.
func assertMatchesRefBuilder(t *testing.T, name, src string) {
	t.Helper()
	want := refParse(src)
	if err := sameTree(htmlparse.Parse(src), want, ""); err != nil {
		t.Fatalf("%s: Parse: %v", name, err)
	}
	tr := htmlparse.AcquireTree()
	defer tr.Release()
	tr.Parse(adversarialHTML["nested lists"])
	if err := sameTree(tr.Parse(src), want, ""); err != nil {
		t.Fatalf("%s: Tree.Parse: %v", name, err)
	}
}

func TestTreeMatchesReference(t *testing.T) {
	for name, src := range adversarialHTML {
		assertMatchesRefBuilder(t, name, src)
	}
	// Pages past one slab chunk, and past several.
	assertMatchesRefBuilder(t, "many records", strings.Repeat(`<tr class="r"><td a=1 b=2>x</td><td>y</td></tr>`, 3000))
	assertMatchesRefBuilder(t, "many attributes", `<a`+strings.Repeat(` k`, 600)+`>x</a><b c=1>y</b>`)
}

// FuzzTreeMatchesReference is the slab builder against the builder it
// replaced, on arbitrary input.
func FuzzTreeMatchesReference(f *testing.F) {
	for _, html := range adversarialHTML {
		f.Add(html)
	}
	f.Fuzz(func(t *testing.T, src string) { assertMatchesRefBuilder(t, "fuzz", src) })
}

// TestAppendToParsedNodeCopies: every node's Children is a window of one
// array, capped at its length, so appending to a parsed node must move its
// children, not write over the next node's.
func TestAppendToParsedNodeCopies(t *testing.T) {
	root := htmlparse.Parse(`<ul><li>a<b>1</b></li><li>b<i>2</i></li><li>c</li></ul>`)
	ul := root.Children[0]
	before := make([][]*dom.Node, len(ul.Children))
	for i, li := range ul.Children {
		before[i] = slices.Clone(li.Children)
	}
	ul.Children[0].Append(dom.NewText("extra"))
	root.Append(dom.NewElement("p"))
	for i, li := range ul.Children[1:] {
		if !slices.Equal(li.Children, before[i+1]) {
			t.Fatalf("li %d children changed after appending to its sibling: %v", i+1, li.Children)
		}
	}
	if first := ul.Children[0].Children; len(first) != 3 || first[2].Data != "extra" || !slices.Equal(first[:2], before[0]) {
		t.Fatalf("appended child lost: %v", first)
	}
	if len(ul.Children) != 3 {
		t.Fatalf("appending to the document changed the list: %d items", len(ul.Children))
	}
}

// parseAllocBudget is Parse's allocation ceiling for one page, whatever its
// size: the builder, a node slab chunk or two, an attribute chunk, the
// children array, the node counts and the open-element stack, and the
// parser scratch when its pool is cold. On top of it a text whose
// character references decode (or whose whitespace collapses, which a
// canonical page — what a corpus stores and re-parses — never needs) is
// a string of its own.
const parseAllocBudget = 16

func TestParseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	for _, records := range []int{20, 200, 2000} {
		site, err := gen.DealerSite(gen.DealerConfig{
			Seed: 41, Pool: gen.BusinessPool(1, 4000, 0), NumPages: 1, MinRecords: records, MaxRecords: records})
		if err != nil {
			t.Fatal(err)
		}
		page := site.Corpus.Pages[0].HTML
		nodes, decoded := 0, 0
		htmlparse.Parse(page).Walk(func(n *dom.Node) bool {
			nodes++
			if n.Type == dom.TextNode && strings.ContainsAny(n.Data, "&<>") {
				decoded++
			}
			return true
		})
		if avg := testing.AllocsPerRun(10, func() { htmlparse.Parse(page) }); avg > float64(parseAllocBudget+decoded) {
			t.Errorf("Parse of %d nodes: %.0f allocations, budget %d a page and %d decoded texts", nodes, avg, parseAllocBudget, decoded)
		} else {
			t.Logf("Parse of %d nodes: %.0f allocations, %d decoded texts", nodes, avg, decoded)
		}
	}
}
