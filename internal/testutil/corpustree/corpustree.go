// Package corpustree gives tests the trees a corpus does not keep: each
// page's canonical HTML reparsed, which is the tree the page was indexed
// from (the serialization is a parse fixed point), with its extractable
// text nodes numbered by the corpus's ordinals.
package corpustree

import (
	"fmt"
	"strings"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
)

// Trees is a corpus's pages as trees.
type Trees struct {
	Roots []*dom.Node // page index -> document
	Texts []*dom.Node // ordinal -> text node
	ord   map[*dom.Node]int
}

// Of reparses every page of c. It panics if a page's reparse does not hold
// the texts the corpus indexed for it.
func Of(c *corpus.Corpus) *Trees {
	t := &Trees{ord: make(map[*dom.Node]int, c.NumTexts())}
	for i, p := range c.Pages {
		root := htmlparse.Parse(p.HTML)
		t.Roots = append(t.Roots, root)
		lo, hi := c.TextRange(i)
		texts := corpus.ExtractableTexts(root)
		if len(texts) != hi-lo {
			panic(fmt.Sprintf("corpustree: page %d reparses to %d texts, the corpus indexed %d", i, len(texts), hi-lo))
		}
		for k, n := range texts {
			if got, want := strings.TrimSpace(n.Data), c.TextContent(lo+k); got != want {
				panic(fmt.Sprintf("corpustree: page %d text %d reparses as %q, the corpus indexed %q", i, k, got, want))
			}
			t.ord[n] = lo + k
			t.Texts = append(t.Texts, n)
		}
	}
	return t
}

// OrdinalOf returns the ordinal of a text node of the trees, or -1 for any
// other node.
func (t *Trees) OrdinalOf(n *dom.Node) int {
	if ord, ok := t.ord[n]; ok {
		return ord
	}
	return -1
}
