package htmlparse

import (
	"strings"
	"sync"

	"autowrap/internal/dom"
)

// Tree is a reusable parse workspace: the node, attribute and child slabs
// of a tree builder, and a parser's scratch, that survive across parses. In
// steady state a recycled Tree parses a page with no allocations at all —
// nodes, their Attrs and Children, the open-element stack and the parser's
// own scratch are all reused at their converged capacities.
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
	b treeBuilder
	p parser
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
// Parse builds into fresh slabs that the returned tree owns forever: a page
// costs a few allocations, not one per node. Hot paths that discard the
// tree after use should go through AcquireTree/Tree.Parse/Release instead,
// which recycles the slabs.
func Parse(src string) *dom.Node {
	p := parserPool.Get().(*parser)
	defer p.release()
	var b treeBuilder
	return b.build(src, p)
}

// treeBuilder is the Handler that builds a tree: the parser's events woven
// into slab nodes under a stack of the open ones. Nodes come in document
// order, so a node's children are numbered after it and before its next
// sibling; the builder only counts them during the parse, and finish lays
// every node's Children out in one array.
type treeBuilder struct {
	nodes slab[dom.Node]
	attrs slab[dom.Attr]
	// kids holds every node's Children back to back.
	kids []*dom.Node
	// children counts each node's children, by node number, until finish.
	children []int32
	stack    []openNode
}

// openNode is an open container and its node number.
type openNode struct {
	n *dom.Node
	i int32
}

// Census estimates in one pass how many elements, texts and attributes
// src parses into: an element a start tag, a text a run between two tags
// that is not all white space (which the parser drops), and an attribute
// an '=' inside a start tag. The pass steps over text to the next '<' and
// through a tag to its '>'. A run that a comment splits, or a '<' inside a
// script, counts one text too many, and a '=' inside an attribute value one
// attribute too many; the elements a parse implies are not counted, and
// nor is an attribute with no value.
func Census(src string) (elements, texts, attrs int) {
	for i := 0; i < len(src); i++ { // src[i] is a '<' or outside every tag
		if src[i] != '<' {
			end := len(src)
			if k := strings.IndexByte(src[i:], '<'); k >= 0 {
				end = i + k
			}
			for ; i < end; i++ {
				if nameClass[src[i]]&spaceByte == 0 {
					texts++
					break
				}
			}
			i = end - 1
			continue
		}
		start := i+1 < len(src) && nameClass[src[i+1]]&nameByte != 0
		if start {
			elements++
		}
		for i++; i < len(src) && src[i] != '>'; i++ {
			if start && src[i] == '=' {
				attrs++
			}
		}
	}
	return elements, texts, attrs
}

// nodeHint sizes a tree builder's slabs for src from its Census, and the
// document: a thirty-second more and sixteen cover the elements a parse
// implies, so the first chunk holds the page. A page of attributes with
// no value takes a second attribute chunk.
func nodeHint(src string) (nodes, attrs int) {
	elements, texts, attrs := Census(src)
	nodes = 1 + elements + texts
	return nodes + nodes/32 + 16, attrs + attrs/32 + 16
}

// build parses src with p into the builder's slabs and returns the document
// node. Nothing the tree keeps points into p's scratch.
func (b *treeBuilder) build(src string, p *parser) *dom.Node {
	if len(b.children) > 0 { // a second Parse without a Release; a pooled tree arrives reset
		b.reset()
	}
	if b.children == nil { // a fresh builder: size it for the page
		nodes, attrs := nodeHint(src)
		b.nodes.hint, b.attrs.hint = nodes, attrs
		b.children = make([]int32, 0, min(nodes, 4*maxChunk))
		b.stack = make([]openNode, 0, 32)
	}
	doc := b.node(dom.DocumentNode)
	b.stack = append(b.stack, openNode{doc, 0})
	p.run(src, b)
	b.stack = b.stack[:0]
	b.finish()
	return doc
}

// node hands out the next slab node, the last child of the innermost open
// element.
func (b *treeBuilder) node(typ dom.NodeType) *dom.Node {
	n := b.nodes.one()
	n.Type = typ
	if k := len(b.stack); k > 0 {
		top := b.stack[k-1]
		n.Parent = top.n
		b.children[top.i]++
	}
	b.children = append(b.children, 0)
	return n
}

func (b *treeBuilder) StartElement(tag string, attrs []dom.Attr, container bool) {
	el := b.node(dom.ElementNode)
	el.Tag = tag
	if len(attrs) > 0 {
		el.Attrs = b.attrs.alloc(len(attrs))
		copy(el.Attrs, attrs)
	}
	el.Raw = dom.IsRaw(tag)
	if container {
		b.stack = append(b.stack, openNode{el, int32(len(b.children) - 1)})
	}
}

func (b *treeBuilder) EndElement(string) { b.stack = b.stack[:len(b.stack)-1] }

func (b *treeBuilder) WantText() bool { return true }

func (b *treeBuilder) Text(data string, raw bool) {
	b.node(dom.TextNode).Data = data
}

// finish gives every node its Children, laid out in node order in one
// array. Each node's slice is capped at its length, so an Append to a
// parsed node copies its children instead of overwriting the next node's.
// A parent precedes its children, so one pass in node order both carves a
// node's slice and appends the node to its parent's.
func (b *treeBuilder) finish() {
	total := len(b.children)
	if cap(b.kids) < total-1 {
		b.kids = make([]*dom.Node, total-1)
	}
	kids, i := b.kids[:total-1], 0
	for _, chunk := range b.nodes.chunks {
		for j := range chunk {
			if i == total {
				return
			}
			n := &chunk[j]
			if k := int(b.children[i]); k > 0 {
				n.Children, kids = kids[:0:k], kids[k:]
			}
			if n.Parent != nil {
				n.Parent.Children = append(n.Parent.Children, n)
			}
			i++
		}
	}
}

// reset zeroes everything the last parse wrote: node Tag/Data/Attrs alias
// the source string, and would otherwise keep a request's HTML alive for as
// long as the workspace sits idle. The slabs themselves are kept.
func (b *treeBuilder) reset() {
	b.nodes.reset()
	b.attrs.reset()
	b.children = b.children[:0]
	b.stack = b.stack[:0]
}

// maxChunk bounds, in elements, one chunk of a slab: a page past it grows by
// more chunks of this size, so what a slab holds beyond its page stays
// within one chunk.
const maxChunk = 1 << 12

// slab hands out runs of T carved from a few large chunks instead of one
// heap object each. A chunk never moves or grows, so a run stays where it
// was handed out, and each run is capped at its length, so appending to one
// copies it instead of overwriting its neighbour. The chunks are sized to
// hold hint elements between them; past it each holds a quarter of all
// before it, so a hint that falls a little short costs a little more.
type slab[T any] struct {
	chunks [][]T
	cur    int // index of the chunk being carved; len(chunks) before the first
	free   []T // what chunks[cur] has not handed out
	size   int // elements in all chunks
	hint   int // elements the page is expected to need
}

// alloc hands out the next k elements, zero unless a reset slab had them.
func (s *slab[T]) alloc(k int) []T {
	if len(s.free) < k {
		s.next(k)
	}
	run := s.free[:k:k]
	s.free = s.free[k:]
	return run
}

// one hands out the next element, as alloc(1) does.
func (s *slab[T]) one() *T {
	if len(s.free) == 0 {
		s.next(1)
	}
	e := &s.free[0]
	s.free = s.free[1:]
	return e
}

// next moves to the following chunk, recycling it if it holds k elements
// and making a new one in its place if it does not.
func (s *slab[T]) next(k int) {
	if s.cur < len(s.chunks) {
		s.cur++
	}
	if s.cur < len(s.chunks) && len(s.chunks[s.cur]) >= k {
		s.free = s.chunks[s.cur]
		return
	}
	size := max(s.hint-s.size, s.size/4, 16)
	chunk := make([]T, max(k, min(size, maxChunk)))
	if s.cur < len(s.chunks) {
		s.size -= len(s.chunks[s.cur])
		s.chunks[s.cur] = chunk
	} else {
		s.chunks = append(s.chunks, chunk)
	}
	s.size += len(chunk)
	s.free = chunk
}

// reset zeroes what was handed out and rewinds to the first chunk.
func (s *slab[T]) reset() {
	if s.cur == len(s.chunks) {
		return // nothing handed out yet
	}
	for _, c := range s.chunks[:s.cur] {
		clear(c)
	}
	c := s.chunks[s.cur]
	clear(c[:len(c)-len(s.free)])
	s.cur, s.free = 0, s.chunks[0]
}

// maxPooledNodes bounds how large a workspace the pool will retain, in
// nodes and in attributes: a pathological page must not pin megabytes of
// slab forever. Oversized workspaces are dropped on Release and the pool
// refills with fresh ones.
const maxPooledNodes = 1 << 14

var treePool = sync.Pool{New: func() any { return new(Tree) }}

// AcquireTree takes a parse workspace from the pool. Pair with Release.
func AcquireTree() *Tree { return treePool.Get().(*Tree) }

// Parse parses src into the workspace, recycling the slabs of previous
// parses. The returned tree is invalidated by the next Parse or Release on
// this workspace; see the Tree doc for the ownership rules.
func (t *Tree) Parse(src string) *dom.Node {
	doc := t.b.build(src, &t.p)
	t.p.reset()
	return doc
}

// Release returns the workspace to the pool, cleared of every reference to
// the page it parsed. The last parsed tree must no longer be referenced.
// Oversized workspaces are dropped instead of pooled.
func (t *Tree) Release() {
	if t.b.nodes.size > maxPooledNodes || t.b.attrs.size > maxPooledNodes || t.p.oversized() {
		return
	}
	t.b.reset()
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
	p.release()
}

// release returns a pooled parser to its pool, reset, unless it grew
// oversized.
func (p *parser) release() {
	if p.oversized() {
		return
	}
	p.reset()
	parserPool.Put(p)
}
