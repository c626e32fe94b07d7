package htmlparse

import "autowrap/internal/dom"

// Handler receives a page as the parser's event sequence: the one set of
// tolerance rules (implicit closes, stray and force-closing end tags, raw
// script/style text, text runs coalesced across dropped comments,
// whitespace collapse) decides what the document is, and a handler decides
// what to keep of it. The tree builder behind Parse is one handler; a
// compiled rule that reads a page once is another, and builds no tree.
//
// Events arrive in document order and describe a well-formed document:
// every container is ended, innermost first, before its parent is.
type Handler interface {
	// StartElement reports an element under the innermost open element.
	// tag is lowercase. attrs, in source order with lowercase keys and
	// decoded values, is the parser's scratch: valid during the call only,
	// though its strings may be kept. container reports whether the
	// element opens a level — EndElement will be called for it, and what
	// comes before that is inside it. An element that is void,
	// self-closing or deeper than the parser nests is a leaf.
	StartElement(tag string, attrs []dom.Attr, container bool)
	// EndElement closes the innermost open container, whose tag it repeats.
	EndElement(tag string)
	// WantText reports whether the handler wants the text directly under
	// the innermost open element. The parser asks before it decodes,
	// coalesces and collapses a run, so text nobody wants costs a scan for
	// the next '<'.
	WantText() bool
	// Text delivers one text node under the innermost open element: a
	// whole run, whitespace-collapsed and never empty, or with raw set the
	// verbatim content of a script or style element. data aliases the page
	// or is freshly allocated; the handler may keep it.
	Text(data string, raw bool)
}

// maxDepth is how many elements the parser holds open at once (Blink's
// limit). Past it a start tag still adds its element but opens no level, and
// an end tag is paired off against a count of those instead of the open
// elements, so whatever walks a parsed tree recurses to a bounded depth and
// a page of a million unclosed tags costs a million leaves, not a stack.
const maxDepth = 512

// parser is the one implementation of the tolerance rules, and the scratch
// it needs from page to page. It keeps the tags of the open elements itself;
// handlers that need more per level keep their own stack beside it.
type parser struct {
	tz tokenizer
	// open holds the tags of the open containers, outermost first.
	open []string
	// overflow counts the start tags refused a level whose end tags have
	// not come by yet.
	overflow int
	// Text accumulates as a single pending run in the common case, with
	// classifyText's verdict on whether it is already collapsed; runs
	// split by a dropped comment/doctype or a literal '<', and runs with
	// character references to decode, go through textBuf. scratch holds
	// the whitespace-collapsed form of the run being flushed.
	pending          string
	pendingCollapsed bool
	textBuf          []byte
	scratch          []byte
}

// run parses src on a reset parser, delivering it to h.
func (p *parser) run(src string, h Handler) {
	p.tz.src = src
	for p.tz.next() {
		switch p.tz.typ {
		case tokComment, tokDoctype:
			// dropped: the extraction model does not use them. They do not
			// flush the text run — once dropped, the text on either side
			// is adjacent, exactly as a reparse of the serialization sees it.
		case tokText:
			p.text(h)
		case tokStartTag, tokSelfClosing:
			p.startTag(h)
		case tokEndTag:
			p.endTag(h)
		}
	}
	p.flushText(h)
	p.closeTo(0, h)
}

// text takes one text token: raw-element content goes out as it stands,
// anything else joins the pending run. Whether the run is wanted cannot
// change before it is flushed — only tags that flush move the innermost
// element — so unwanted tokens are dropped one by one, having cost the
// tokenizer's search for their end, and a wanted one is scanned once more,
// by classifyText.
func (p *parser) text(h Handler) {
	if !h.WantText() {
		return
	}
	data := p.tz.data
	// A raw element's content is the token after its start tag and its end
	// tag the one after that; unless the element got no level, and then
	// its content is text of the level it would have been under.
	if n := len(p.open); p.tz.raw && n > 0 && dom.IsRaw(p.open[n-1]) {
		if !isSpace(data) {
			h.Text(data, true)
		}
		return
	}
	amp, collapsed := classifyText(data)
	decode := amp && !p.tz.raw
	if p.pending == "" && len(p.textBuf) == 0 && !decode {
		p.pending, p.pendingCollapsed = data, collapsed
		return
	}
	p.textBuf = append(p.textBuf, p.pending...)
	p.pending = ""
	if decode {
		p.textBuf = appendDecoded(p.textBuf, data)
	} else {
		p.textBuf = append(p.textBuf, data...)
	}
}

// flushText ends the pending run and delivers it, whitespace-collapsed,
// unless nothing is left of it. A run that is one piece of the source and
// already its own collapsed form is delivered as that piece, uncopied.
func (p *parser) flushText(h Handler) {
	switch {
	case len(p.textBuf) > 0:
		p.scratch = collapseAppend(p.scratch[:0], p.textBuf)
		p.textBuf = p.textBuf[:0]
	case p.pending != "":
		data := p.pending
		p.pending = ""
		if p.pendingCollapsed {
			h.Text(data, false)
			return
		}
		p.scratch = collapseAppend(p.scratch[:0], data)
	default:
		return
	}
	if len(p.scratch) > 0 {
		h.Text(string(p.scratch), false)
	}
}

func (p *parser) startTag(h Handler) {
	p.flushText(h)
	tag := p.tz.data
	p.autoClose(tag, h)
	container := p.tz.typ == tokStartTag && !dom.IsVoid(tag)
	if container && len(p.open) == maxDepth {
		container = false
		p.overflow++
	}
	h.StartElement(tag, p.tz.attrs, container)
	if container {
		p.open = append(p.open, tag)
	}
}

// autoClose ends the open elements a starting tag implicitly closes — the
// common sloppy patterns of script-generated HTML (a new <tr> closes an
// open <td> and <tr>). Each victim is tried once, in the order listed,
// against the innermost element at that moment.
func (p *parser) autoClose(tag string, h Handler) {
	switch tag {
	case "li", "p", "option":
		p.closeTop(tag, h)
	case "td", "th":
		p.closeTop("td", h)
		p.closeTop("th", h)
	case "dt", "dd":
		p.closeTop("dd", h)
		p.closeTop("dt", h)
	case "tr", "thead", "tbody":
		p.closeTop("td", h)
		p.closeTop("th", h)
		p.closeTop("tr", h)
		switch tag {
		case "thead":
			p.closeTop("tbody", h)
		case "tbody":
			p.closeTop("thead", h)
		}
	}
}

func (p *parser) closeTop(tag string, h Handler) {
	if n := len(p.open); n > 0 && p.open[n-1] == tag {
		p.closeTo(n-1, h)
	}
}

// endTag closes the nearest open element with the tag, force-closing
// everything above it; with none open the stray tag is dropped, without
// splitting the surrounding text run.
func (p *parser) endTag(h Handler) {
	if p.overflow > 0 {
		p.overflow--
		return
	}
	tag := p.tz.data
	for i := len(p.open) - 1; i >= 0; i-- {
		if p.open[i] == tag {
			p.flushText(h)
			p.closeTo(i, h)
			return
		}
	}
}

// closeTo ends the open elements from the innermost down to level i. The
// vacated slots are cleared: tags alias the page, which an idle parser must
// not keep alive.
func (p *parser) closeTo(i int, h Handler) {
	for j := len(p.open) - 1; j >= i; j-- {
		h.EndElement(p.open[j])
		p.open[j] = ""
	}
	p.open = p.open[:i]
	p.overflow = 0 // the leaves still awaiting an end tag were under open[maxDepth-1]
}

// reset drops what a parse left behind, including every reference into the
// page — the tokenizer's source and attribute scratch; run itself leaves
// open empty and cleared, and the tokenizer its key set — and keeps the
// storage.
func (p *parser) reset() {
	attrs := p.tz.attrs[:cap(p.tz.attrs)]
	clear(attrs)
	p.tz = tokenizer{attrs: attrs[:0], keys: p.tz.keys}
	p.overflow, p.pending, p.pendingCollapsed = 0, "", false
	p.textBuf = p.textBuf[:0]
}

// maxPooledScratch bounds, in bytes, the text and attribute scratch an idle
// parser may keep, as maxPooledNodes bounds a workspace's slabs: one text
// run of megabytes must not stay pinned in a pool.
const maxPooledScratch = 1 << 16

func (p *parser) oversized() bool {
	const attrSize = 32 // two string headers
	return cap(p.textBuf)+cap(p.scratch)+attrSize*cap(p.tz.attrs) > maxPooledScratch
}

// collapseAppend appends s to dst with runs of whitespace normalized to
// single spaces and the ends trimmed. Script-generated pages are full of
// indentation noise; collapsing makes text-node identity stable across
// serialize/reparse cycles.
func collapseAppend[S string | []byte](dst []byte, s S) []byte {
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if nameClass[c]&spaceByte != 0 {
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

// classifyText tells in one scan of a text run what flushing it needs to
// know: whether it holds a '&' (a character reference to decode), and
// whether it is already its own collapsed form — not empty, no whitespace
// at either end, and none inside but single spaces — which collapseAppend
// would reproduce.
func classifyText(s string) (amp, collapsed bool) {
	collapsed = true
	space := true // so that a leading space fails like a doubled one
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch nameClass[c] & (spaceByte | ampByte) {
		case 0:
			space = false
		case spaceByte:
			if space || c != ' ' {
				collapsed = false
			}
			space = true
		default:
			amp, space = true, false
		}
	}
	return amp, collapsed && !space
}

// isSpace reports whether s is entirely HTML whitespace.
func isSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if nameClass[s[i]]&spaceByte == 0 {
			return false
		}
	}
	return true
}
