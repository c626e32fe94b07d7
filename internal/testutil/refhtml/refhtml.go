// Package refhtml is the reference HTML serializer that differential tests
// hold internal/dom's against: the strings.Builder, strings.Replacer and
// span-map implementation dom.Serialize / dom.SerializeWithSpans had before
// they were rebuilt on the append-style dom.AppendHTML. It is deliberately
// independent of that code — it shares no escaping, void-element or walk
// logic with it — and is imported by tests only.
package refhtml

import (
	"strings"

	"autowrap/internal/dom"
)

var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// Serialize renders the subtree rooted at n as HTML and returns, for every
// serialized text node, the byte span [start,end) of its escaped content.
func Serialize(n *dom.Node) (string, map[*dom.Node][2]int) {
	spans := make(map[*dom.Node][2]int)
	var sb strings.Builder
	serialize(&sb, n, spans)
	return sb.String(), spans
}

func serialize(sb *strings.Builder, n *dom.Node, spans map[*dom.Node][2]int) {
	switch n.Type {
	case dom.DocumentNode:
		for _, c := range n.Children {
			serialize(sb, c, spans)
		}
	case dom.TextNode:
		start := sb.Len()
		if n.Parent != nil && n.Parent.Raw {
			sb.WriteString(n.Data)
		} else {
			sb.WriteString(escapeText(n.Data))
		}
		spans[n] = [2]int{start, sb.Len()}
	case dom.ElementNode:
		sb.WriteByte('<')
		sb.WriteString(n.Tag)
		for _, a := range n.Attrs {
			sb.WriteByte(' ')
			sb.WriteString(a.Key)
			sb.WriteString(`="`)
			sb.WriteString(escapeAttr(a.Val))
			sb.WriteByte('"')
		}
		sb.WriteByte('>')
		if voidElements[n.Tag] {
			return
		}
		for _, c := range n.Children {
			serialize(sb, c, spans)
		}
		sb.WriteString("</")
		sb.WriteString(n.Tag)
		sb.WriteByte('>')
	}
}

func escapeText(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s)
}

func escapeAttr(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}
