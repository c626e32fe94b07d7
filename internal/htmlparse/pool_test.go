package htmlparse

import (
	"strings"
	"testing"

	"autowrap/internal/dom"
	"autowrap/internal/testutil/pincheck"
)

// poolCases exercises the constructs where the pooled parser's recycled
// state could plausibly leak between parses: attributes (tokenizer scratch),
// split text runs (textBuf), deep nesting (stack), raw script/style, and
// entities.
var poolCases = []string{
	"",
	"plain text only",
	"<html><body><p>hello</p></body></html>",
	"<div class='a' id=\"b\" checked><span>x</span></div>",
	"<table><tr><td>a<td>b<tr><td>c</table>",
	"<p>one<!-- split -->two</p>",
	"<p>a &amp; b &lt;c&gt; &#65;</p>",
	"<script>if (a < b) { x() }</SCRIPT><p>after</p>",
	"<style>td { color: red }</style>",
	"<ul><li>1<li>2<li>3</ul>",
	"<div>\n\t  spaced   out\n</div>",
	"<a href='/x'>link</a> loose > bracket < not a tag",
	strings.Repeat("<div>", 40) + "deep" + strings.Repeat("</div>", 40),
}

// TestTreeParseMatchesParse pins the pooled parser to the package-level one:
// the same workspace reused across very different pages must serialize
// identically to a fresh parse every time.
func TestTreeParseMatchesParse(t *testing.T) {
	tr := AcquireTree()
	defer tr.Release()
	// Two passes over the corpus so every case also runs against a
	// workspace dirtied by every other case.
	for pass := 0; pass < 2; pass++ {
		for _, src := range poolCases {
			want := dom.Serialize(Parse(src))
			got := dom.Serialize(tr.Parse(src))
			if got != want {
				t.Fatalf("pass %d: pooled parse of %q:\n got %q\nwant %q", pass, src, got, want)
			}
		}
	}
}

// TestTreeParseRecyclesNodes proves the slabs actually recycle: after a
// first parse warms the workspace, reparsing a page of the same shape must
// not grow them.
func TestTreeParseRecyclesNodes(t *testing.T) {
	tr := AcquireTree()
	defer tr.Release()
	src := "<html><body><div class='x'><p>a</p><p>b</p></div></body></html>"
	tr.Parse(src)
	nodes, attrs, kids := tr.b.nodes.size, tr.b.attrs.size, cap(tr.b.kids)
	for i := 0; i < 10; i++ {
		tr.Parse(src)
	}
	if tr.b.nodes.size != nodes || tr.b.attrs.size != attrs || cap(tr.b.kids) != kids {
		t.Fatalf("slabs grew from %d/%d/%d to %d/%d/%d (nodes/attrs/children) on identical reparses",
			nodes, attrs, kids, tr.b.nodes.size, tr.b.attrs.size, cap(tr.b.kids))
	}
}

// TestTreeParseAllocs pins the steady-state allocation count of the pooled
// fast path on a page whose text is already whitespace-collapsed: the only
// remaining allocations should be incidental (and zero is the goal).
func TestTreeParseAllocs(t *testing.T) {
	tr := AcquireTree()
	defer tr.Release()
	src := "<html><body><table><tr><td>alpha</td><td>beta</td></tr></table></body></html>"
	tr.Parse(src) // warm the slabs
	avg := testing.AllocsPerRun(100, func() { tr.Parse(src) })
	if avg > 0 {
		t.Fatalf("pooled reparse allocates %.1f times per run, want 0", avg)
	}
}

// TestTreeReleaseDropsOversized: a pathological parse must not pin its slabs
// in the pool forever.
func TestTreeReleaseDropsOversized(t *testing.T) {
	tr := &Tree{}
	var sb strings.Builder
	for i := 0; i < maxPooledNodes+2; i++ {
		sb.WriteString("<br>")
	}
	tr.Parse(sb.String())
	if tr.b.nodes.size <= maxPooledNodes {
		t.Skipf("node slab only reached %d nodes", tr.b.nodes.size)
	}
	tr.Release() // must not panic; the workspace is simply dropped
}

// TestTextDataDoesNotAliasScratch: text collapsed from indented source must
// be a stable copy, not a view of the workspace scratch that the next parse
// overwrites.
func TestTextDataDoesNotAliasScratch(t *testing.T) {
	tr := AcquireTree()
	defer tr.Release()
	root := tr.Parse("<p>\n   first   text\n</p>")
	var got string
	root.Walk(func(n *dom.Node) bool {
		if n.Type == dom.TextNode {
			got = n.Data
		}
		return true
	})
	if got != "first text" {
		t.Fatalf("collapsed text = %q", got)
	}
	tr.Parse("<p>\n   SECOND   run\n</p>") // overwrite the scratch
	if got != "first text" {
		t.Fatalf("text data mutated by the next parse: %q", got)
	}
}

// TestReleasedTreeDoesNotPinSource: node tags, text, attributes and the
// tokenizer all alias the page source, and an idle workspace lives until
// the process exits — so Release has to drop every one of those references,
// or each idle workspace keeps a whole request body alive. The page lives in
// a buffer with a cleanup attached; once the workspace is released and the
// test's own references are dead, a collection must free it even though the
// workspace itself is still reachable (pincheck.Freed).
func TestReleasedTreeDoesNotPinSource(t *testing.T) {
	pincheck.Freed(t, pincheck.Page, func(page string) any {
		tr := &Tree{} // held by the test, whatever the pool does with it
		root := tr.Parse(page)
		if n := len(dom.Serialize(root)); n < len(page)/2 {
			t.Fatalf("fixture parsed to %d bytes of %d", n, len(page))
		}
		tr.Release()
		return tr
	})
}

// TestResetParserDoesNotPinSource is its twin for Stream's scratch: the
// parser alone, as Stream returns it to its pool.
func TestResetParserDoesNotPinSource(t *testing.T) {
	pincheck.Freed(t, pincheck.Page, func(page string) any {
		p := new(parser)
		var b treeBuilder
		b.stack = append(b.stack, openNode{b.node(dom.DocumentNode), 0})
		p.run(page, &b)
		p.reset()
		return p
	})
}

// TestReleaseZeroesNodes: after Release no slab holds anything the parse
// wrote — every node and attribute is zero — the slabs themselves are kept
// for the next parse, and the tokenizer scratch holds nothing.
func TestReleaseZeroesNodes(t *testing.T) {
	tr := &Tree{}
	tr.Parse(`<ul a="1" b='2' c=3>` + strings.Repeat("<li class=k>x</li>", 40) + "</ul><p class=k>narrow</p>")
	tr.Release()
	if len(tr.b.children) != 0 || len(tr.b.stack) != 0 || tr.p.tz.src != "" {
		t.Fatalf("workspace not reset: %d nodes, stack %d, len(src)=%d", len(tr.b.children), len(tr.b.stack), len(tr.p.tz.src))
	}
	for c, chunk := range tr.b.nodes.chunks {
		for i, n := range chunk {
			if n.Type != 0 || n.Tag != "" || n.Data != "" || n.Raw || n.Parent != nil || n.Attrs != nil || n.Children != nil {
				t.Fatalf("slab node %d/%d not zeroed: %+v", c, i, n)
			}
		}
	}
	for c, chunk := range tr.b.attrs.chunks {
		for i, a := range chunk {
			if a != (dom.Attr{}) {
				t.Fatalf("slab attribute %d/%d keeps %v", c, i, a)
			}
		}
	}
	for _, a := range tr.p.tz.attrs[:cap(tr.p.tz.attrs)] {
		if a != (dom.Attr{}) {
			t.Fatalf("tokenizer scratch keeps a stale attribute %v", a)
		}
	}
	if tr.b.nodes.size == 0 || tr.b.attrs.size == 0 || cap(tr.b.kids) == 0 {
		t.Fatal("reset threw the slabs away")
	}
}
