package htmlparse

import (
	"sync"

	"autowrap/internal/dom"
)

// Tree is a reusable parse workspace: a node arena plus tokenizer and text
// scratch that survive across parses. In steady state a recycled Tree parses
// a page with no node allocations at all — nodes, their Children and Attrs
// slices, the open-element stack and the parser's own scratch are all
// reused at their converged capacities.
//
// The tree returned by Parse is owned by the workspace: it is valid until
// the next Parse on the same workspace or until Release, both of which zero
// every node. Callers that need the tree (or any *dom.Node inside it) to
// outlive the workspace must use the package-level Parse instead. Text-node
// Data strings are safe to retain: they either alias the source string or
// are freshly allocated, never the workspace's scratch.
//
// A pooled workspace is for a parse several readers share and then discard
// — repair validation evaluates two rules on each held-out page. One rule
// reading one page once (all of serving) needs no tree: see Stream. Idle
// workspaces are bounded without a knob: the pool sheds them over two
// collection cycles, each is within maxPooledNodes, and none holds a
// reference into the page it parsed.
//
// A Tree is not safe for concurrent use; the pool hands each goroutine its
// own.
type Tree struct {
	arena []*dom.Node
	used  int
	stack []*dom.Node
	p     parser
}

// Parse builds a document tree from HTML source. It never returns an error:
// any input yields a tree (tolerant, tidy-like behaviour). Whitespace-only
// text between elements is dropped; other text keeps its original spacing.
//
// Consecutive text runs — split by the tokenizer at a literal '<', or by a
// dropped comment/doctype — coalesce into a single text node. This keeps
// the tree a fixed point of serialize→reparse (escaping erases the split
// points), which stored-page extraction relies on: text-node identity must
// not shift between the original parse and a reparse of the serialization.
//
// Parse allocates a fresh tree the caller owns forever. Hot paths that
// discard the tree after use should go through AcquireTree/Tree.Parse/
// Release instead, which recycles node and scratch storage.
func Parse(src string) *dom.Node {
	var t Tree
	return t.parse(src)
}

// parse is the tree-building use of the one parser, shared by the
// package-level Parse (throwaway workspace) and the pooled Tree path. All
// nodes come from the tree's arena; any tree returned by a previous parse
// on the same workspace is invalidated.
func (t *Tree) parse(src string) *dom.Node {
	if t.used > 0 { // a second Parse without a Release; a pooled tree arrives reset
		t.reset()
	}
	doc := t.newNode()
	doc.Type = dom.DocumentNode
	t.stack = append(t.stack, doc)
	t.p.run(src, (*treeBuilder)(t))
	return doc
}

// treeBuilder is the Handler that builds a Tree: the parser's events woven
// into arena nodes under a stack of the open ones.
type treeBuilder Tree

func (b *treeBuilder) StartElement(tag string, attrs []dom.Attr, container bool) {
	el := (*Tree)(b).newNode()
	el.Type = dom.ElementNode
	el.Tag = tag
	el.Attrs = append(el.Attrs, attrs...)
	el.Raw = dom.IsRaw(tag)
	b.stack[len(b.stack)-1].Append(el)
	if container {
		b.stack = append(b.stack, el)
	}
}

func (b *treeBuilder) EndElement(string) { b.stack = b.stack[:len(b.stack)-1] }

func (b *treeBuilder) WantText() bool { return true }

func (b *treeBuilder) Text(data string, raw bool) {
	text := (*Tree)(b).newNode()
	text.Type = dom.TextNode
	text.Data = data
	b.stack[len(b.stack)-1].Append(text)
}

// newNode hands out the next arena node, growing the arena one node at a
// time (each node is its own heap object, so growing the index slice never
// invalidates pointers already woven into the tree). Recycled nodes were
// zeroed by reset.
func (t *Tree) newNode() *dom.Node {
	if t.used == len(t.arena) {
		t.arena = append(t.arena, &dom.Node{})
	}
	n := t.arena[t.used]
	t.used++
	return n
}

// reset zeroes everything the last parse wrote: node Tag/Data/Attrs and the
// tokenizer alias the source string, and would otherwise keep a request's
// HTML alive for as long as the workspace sits idle. Nodes keep their
// (cleared) Children and Attrs storage.
func (t *Tree) reset() {
	for _, n := range t.arena[:t.used] {
		clear(n.Attrs)
		*n = dom.Node{Attrs: n.Attrs[:0], Children: n.Children[:0]}
	}
	t.used = 0
	t.stack = t.stack[:0]
	t.p.reset()
}

// maxPooledNodes bounds how large a workspace the pool will retain: a
// pathological page must not pin megabytes of arena forever. Oversized
// workspaces are dropped on Release and the pool refills with fresh ones.
const maxPooledNodes = 1 << 14

var treePool = sync.Pool{New: func() any { return new(Tree) }}

// AcquireTree takes a parse workspace from the pool. Pair with Release.
func AcquireTree() *Tree { return treePool.Get().(*Tree) }

// Parse parses src into the workspace, recycling node and scratch storage
// from previous parses. The returned tree is invalidated by the next Parse
// or Release on this workspace; see the Tree doc for the ownership rules.
func (t *Tree) Parse(src string) *dom.Node { return t.parse(src) }

// Release returns the workspace to the pool, cleared of every reference to
// the page it parsed. The last parsed tree must no longer be referenced.
// Oversized workspaces are dropped instead of pooled.
func (t *Tree) Release() {
	if len(t.arena) > maxPooledNodes || t.p.oversized() {
		return
	}
	t.reset()
	treePool.Put(t)
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// Stream parses src and delivers it to h as events — the same document
// Parse would build, and no tree. It is the serving path: a compiled rule
// reads a page exactly once, so nothing needs the nodes afterwards. The
// parser scratch is pooled and keeps no reference into src.
func Stream(src string, h Handler) {
	p := parserPool.Get().(*parser)
	p.run(src, h)
	if p.oversized() {
		return
	}
	p.reset()
	parserPool.Put(p)
}
