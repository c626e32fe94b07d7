package htmlparse

import (
	"sync"

	"autowrap/internal/dom"
)

// Tree is a reusable parse workspace: a node arena plus tokenizer and text
// scratch that survive across parses. In steady state a recycled Tree parses
// a page with no node allocations at all — nodes, their Children and Attrs
// slices, the open-element stack and the whitespace-collapse scratch are all
// reused at their converged capacities.
//
// The tree returned by Parse is owned by the workspace: it is valid until
// the next Parse on the same workspace or until Release, both of which zero
// every node. Callers that need the tree (or any *dom.Node inside it) to
// outlive the workspace must use the package-level Parse instead. Text-node
// Data strings are safe to retain: they either alias the source string or
// are freshly allocated, never the workspace's scratch.
//
// Every serving entry point (extract.Runtime's ExtractOne, Run and Stream)
// parses through AcquireTree/Release. Idle workspaces are bounded without a
// knob: the pool sheds them over two collection cycles, each is within
// maxPooledNodes, and none holds a reference into the page it parsed.
//
// A Tree is not safe for concurrent use; the pool hands each goroutine its
// own.
type Tree struct {
	arena []*dom.Node
	used  int
	stack []*dom.Node
	// textBuf coalesces text runs split by dropped constructs; scratch
	// holds the whitespace-collapsed form of the run being flushed.
	textBuf []byte
	scratch []byte
	tz      tokenizer
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
	t.textBuf = t.textBuf[:0]
	attrs := t.tz.attrs[:cap(t.tz.attrs)]
	clear(attrs)
	t.tz = tokenizer{attrs: attrs[:0]}
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
	if len(t.arena) > maxPooledNodes {
		return
	}
	t.reset()
	treePool.Put(t)
}
