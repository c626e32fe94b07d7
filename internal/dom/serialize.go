package dom

// IsVoid reports whether tag names a void element: one that never has
// children and serializes without a closing tag. It is a switch, not a map:
// the parser and the serializer ask once per element on the serving path.
func IsVoid(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input",
		"link", "meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// IsRaw reports whether tag names a raw-text element (script, style): its
// content is one verbatim text node that serializes without escaping and is
// not extractable.
func IsRaw(tag string) bool { return tag == "script" || tag == "style" }

// TextSpan locates one text node's escaped content in a serialization:
// bytes [Start,End) of the output.
type TextSpan struct {
	Node       *Node
	Start, End int
}

// AppendHTML appends the HTML rendering of the subtree rooted at n to dst
// and returns the extended buffer. When spans is non-nil it also appends one
// TextSpan per serialized text node, in document order, with offsets into
// the returned buffer. It is the one serializer: Serialize is a convenience
// over it, and callers on a hot path pass recycled dst and spans storage so
// a page serializes without allocating.
func AppendHTML(dst []byte, n *Node, spans *[]TextSpan) []byte {
	switch n.Type {
	case DocumentNode:
		for _, c := range n.Children {
			dst = AppendHTML(dst, c, spans)
		}
	case TextNode:
		start := len(dst)
		dst = AppendText(dst, n.Data, n.Parent != nil && n.Parent.Raw)
		if spans != nil {
			*spans = append(*spans, TextSpan{Node: n, Start: start, End: len(dst)})
		}
	case ElementNode:
		dst = AppendStartTag(dst, n.Tag, n.Attrs)
		if IsVoid(n.Tag) {
			return dst
		}
		for _, c := range n.Children {
			dst = AppendHTML(dst, c, spans)
		}
		dst = AppendEndTag(dst, n.Tag)
	}
	return dst
}

// AppendStartTag, AppendEndTag and AppendText are the pieces AppendHTML
// writes an element and a text node with, for a caller that serializes a
// document from the parser's events instead of from a tree. A void element
// (IsVoid) has no end tag; raw is whether the text's parent is a raw-text
// element.
func AppendStartTag(dst []byte, tag string, attrs []Attr) []byte {
	dst = append(dst, '<')
	dst = append(dst, tag...)
	for _, a := range attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Key...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, a.Val, true)
		dst = append(dst, '"')
	}
	return append(dst, '>')
}

func AppendEndTag(dst []byte, tag string) []byte {
	dst = append(dst, '<', '/')
	dst = append(dst, tag...)
	return append(dst, '>')
}

func AppendText(dst []byte, data string, raw bool) []byte {
	if raw {
		return append(dst, data...)
	}
	return appendEscaped(dst, data, false)
}

// appendEscaped appends s with & < > (and, for a double-quoted attribute
// value, ") replaced by their character references, copying the runs in
// between whole.
func appendEscaped(dst []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			ref = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ref = "&quot;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, ref...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// Serialize renders the subtree rooted at n as HTML.
func Serialize(n *Node) string {
	return string(AppendHTML(nil, n, nil))
}
