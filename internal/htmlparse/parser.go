package htmlparse

import (
	"autowrap/internal/dom"
)

// autoClose maps a tag to the set of open tags it implicitly closes when it
// starts. This captures the common sloppy patterns of script-generated HTML
// (e.g. a new <tr> closes an open <td> and <tr>).
var autoClose = map[string][]string{
	"li":     {"li"},
	"tr":     {"td", "th", "tr"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"p":      {"p"},
	"option": {"option"},
	"dt":     {"dd", "dt"},
	"dd":     {"dd", "dt"},
	"thead":  {"td", "th", "tr", "tbody"},
	"tbody":  {"td", "th", "tr", "thead"},
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

// parse is the one parser implementation, shared by the package-level Parse
// (throwaway workspace) and the pooled Tree path. All nodes come from the
// tree's arena; any tree returned by a previous parse on the same workspace
// is invalidated.
func (t *Tree) parse(src string) *dom.Node {
	if t.used > 0 { // a second Parse without a Release; a pooled tree arrives reset
		t.reset()
	}
	t.tz.src = src
	doc := t.newNode()
	doc.Type = dom.DocumentNode
	t.stack = append(t.stack, doc)
	top := func() *dom.Node { return t.stack[len(t.stack)-1] }

	// Text accumulates as a single pending run in the common case; runs
	// split by a dropped comment/doctype or a literal '<' coalesce through
	// textBuf. flushText collapses whitespace into scratch and only
	// allocates a fresh string when collapsing actually changed the bytes.
	var pending string
	flushText := func() {
		data := pending
		pending = ""
		if len(t.textBuf) > 0 {
			data = string(t.textBuf)
			t.textBuf = t.textBuf[:0]
		}
		if data == "" {
			return
		}
		t.scratch = collapseAppend(t.scratch[:0], data)
		if len(t.scratch) == 0 {
			return // whitespace-only run
		}
		text := t.newNode()
		text.Type = dom.TextNode
		if string(t.scratch) == data {
			text.Data = data // already collapsed: no copy
		} else {
			text.Data = string(t.scratch)
		}
		top().Append(text)
	}

	for {
		tok, ok := t.tz.next()
		if !ok {
			break
		}
		switch tok.typ {
		case tokComment, tokDoctype:
			// dropped: the extraction model does not use them. They do not
			// flush the text buffer — once dropped, the text on either side
			// is adjacent, exactly as a reparse of the serialization sees it.
		case tokText:
			if top().Raw {
				if !isSpace(tok.data) {
					raw := t.newNode()
					raw.Type = dom.TextNode
					raw.Data = tok.data
					top().Append(raw)
				}
				continue
			}
			if pending == "" && len(t.textBuf) == 0 {
				pending = tok.data
			} else {
				if len(t.textBuf) == 0 {
					t.textBuf = append(t.textBuf, pending...)
					pending = ""
				}
				t.textBuf = append(t.textBuf, tok.data...)
			}
		case tokStartTag, tokSelfClosing:
			flushText()
			for _, victim := range autoClose[tok.data] {
				if top().IsElement(victim) {
					t.stack = t.stack[:len(t.stack)-1]
				}
			}
			el := t.newNode()
			el.Type = dom.ElementNode
			el.Tag = tok.data
			for _, a := range tok.attrs {
				el.Attrs = append(el.Attrs, dom.Attr{Key: a.key, Val: a.val})
			}
			if tok.data == "script" || tok.data == "style" {
				el.Raw = true
			}
			top().Append(el)
			if tok.typ == tokStartTag && !dom.IsVoid(tok.data) {
				t.stack = append(t.stack, el)
			}
		case tokEndTag:
			// Find the nearest matching open element; if none, drop the
			// stray close tag (without splitting the surrounding text run).
			// Everything above the match is force-closed.
			for i := len(t.stack) - 1; i >= 1; i-- {
				if t.stack[i].IsElement(tok.data) {
					flushText()
					t.stack = t.stack[:i]
					break
				}
			}
		}
	}
	flushText()
	return doc
}

// collapseAppend appends s to dst with runs of whitespace normalized to
// single spaces and the ends trimmed. Script-generated pages are full of
// indentation noise; collapsing makes text-node identity stable across
// serialize/reparse cycles.
func collapseAppend(dst []byte, s string) []byte {
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' {
			space = true
			continue
		}
		if space && len(dst) > 0 {
			dst = append(dst, ' ')
		}
		space = false
		dst = append(dst, c)
	}
	return dst
}

// isSpace reports whether s is entirely HTML whitespace.
func isSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r', '\f':
		default:
			return false
		}
	}
	return true
}
