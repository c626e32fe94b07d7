// Package dom provides the document object model used throughout autowrap.
//
// The paper (Sec. 2.1) views a webpage both as an XML/HTML document tree and
// as a flat vector of nodes; this package supplies the tree form, its
// preorder walk, child numbering (the xpath td[2]-style index), and
// serialization back to HTML (used by the LR/WIEN inductor, which treats
// documents as character sequences).
package dom

import (
	"sort"
	"strings"
)

// NodeType discriminates the node kinds we model. Comments and doctypes are
// dropped at parse time; scripts/styles are kept as elements with raw text so
// that serialization is faithful, but their text is not extractable.
type NodeType uint8

const (
	// DocumentNode is the synthetic root of a page.
	DocumentNode NodeType = iota
	// ElementNode is a markup element such as <td>.
	ElementNode
	// TextNode is a run of character data.
	TextNode
)

// TextTag is the pseudo tag name used for text nodes when the publication
// model replaces each piece of text with a special node (paper Sec. 6:
// "<#text>").
const TextTag = "#text"

// Attr is a single HTML attribute. Attribute order is preserved from the
// source so serialization is stable.
type Attr struct {
	Key string
	Val string
}

// Node is a node in a parsed HTML document.
type Node struct {
	Type NodeType
	// Raw marks elements whose children must serialize without escaping
	// (script, style).
	Raw bool

	Tag      string // element tag name (lowercase) or "#text"/"#document"
	Data     string // text content for TextNode
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewDocument returns an empty document root.
func NewDocument() *Node {
	return &Node{Type: DocumentNode, Tag: "#document"}
}

// NewElement returns a detached element node. Attribute pairs are given as
// (key, value, key, value, ...); an odd trailing key gets an empty value.
func NewElement(tag string, kv ...string) *Node {
	n := &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
	for i := 0; i < len(kv); i += 2 {
		v := ""
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		n.Attrs = append(n.Attrs, Attr{Key: strings.ToLower(kv[i]), Val: v})
	}
	return n
}

// NewText returns a detached text node.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Tag: TextTag, Data: data}
}

// Append attaches child to n and returns child for chaining.
func (n *Node) Append(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// AppendAll attaches every child in order and returns n.
func (n *Node) AppendAll(children ...*Node) *Node {
	for _, c := range children {
		n.Append(c)
	}
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// IsElement reports whether n is an element with the given tag.
func (n *Node) IsElement(tag string) bool {
	return n.Type == ElementNode && n.Tag == tag
}

// Walk visits n and all descendants in preorder. If fn returns false the
// children of the current node are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// ChildNumber returns the 1-based position of n among its same-tag element
// siblings: the index used by xpath filters such as td[2]. Text nodes and
// detached nodes return 0.
func (n *Node) ChildNumber() int {
	if n.Parent == nil || n.Type != ElementNode {
		return 0
	}
	k := 0
	for _, sib := range n.Parent.Children {
		if sib.Type == ElementNode && sib.Tag == n.Tag {
			k++
			if sib == n {
				return k
			}
		}
	}
	return 0
}

// ChildCounter numbers an element's children by tag as they go by:
// ChildNumber for whoever meets the children in document order and would
// rather not walk the siblings again for each. A parent has few distinct
// child tags, so a short list, not a map.
type ChildCounter []tagCount

type tagCount struct {
	tag string
	n   int
}

// Next counts one more element child with the given tag and returns its
// same-tag child number.
func (c *ChildCounter) Next(tag string) int {
	for i := range *c {
		if (*c)[i].tag == tag {
			(*c)[i].n++
			return (*c)[i].n
		}
	}
	*c = append(*c, tagCount{tag, 1})
	return 1
}

// Reset empties the counter for the next parent, keeping its storage and
// none of the tags (which may alias a page).
func (c *ChildCounter) Reset() {
	clear(*c)
	*c = (*c)[:0]
}

// Ancestors returns the chain parent, grandparent, ... up to but excluding
// the document root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for p := n.Parent; p != nil && p.Type != DocumentNode; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// SortAttrs orders attributes by key; used by tests that compare trees
// structurally.
func (n *Node) SortAttrs() {
	sort.Slice(n.Attrs, func(i, j int) bool { return n.Attrs[i].Key < n.Attrs[j].Key })
}
