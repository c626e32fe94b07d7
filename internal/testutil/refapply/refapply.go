// Package refapply holds the reference wrapper.Portable.ApplyHTML is held
// to: the contract, spelled out with a tree.
package refapply

import (
	"strings"

	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
)

// Texts is ApplyHTML by definition — parse the page, apply the rule to the
// tree, trim each matched node — for differential tests and for test
// doubles that only have an ApplyPage worth writing.
func Texts(p interface {
	ApplyPage(root *dom.Node) []*dom.Node
}, html string) []string {
	nodes := p.ApplyPage(htmlparse.Parse(html))
	if len(nodes) == 0 {
		return nil
	}
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = strings.TrimSpace(n.Data)
	}
	return out
}
