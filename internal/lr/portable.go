package lr

import (
	"fmt"
	"strings"
	"sync"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
	"autowrap/internal/wrapper"
)

// Compiled is the portable form of an LR wrapper: the delimiter pair alone,
// evaluated against any page's serialized character stream instead of the
// training corpus's precomputed context arrays. A text node matches when
// the bytes immediately preceding its serialized content end with Left and
// the bytes immediately following begin with Right — exactly the predicate
// Inductor.extract applies to its capped per-ordinal contexts, because an
// induced delimiter is never longer than the context it was cut from.
type Compiled struct {
	Left  string
	Right string
}

// Compile converts an induced LR wrapper into its portable form.
func Compile(w wrapper.Wrapper) (*Compiled, error) {
	lw, ok := w.(*Wrapper)
	if !ok {
		return nil, fmt.Errorf("lr: cannot compile %T into a portable LR wrapper", w)
	}
	return &Compiled{Left: lw.Left, Right: lw.Right}, nil
}

// Lang implements wrapper.Portable.
func (c *Compiled) Lang() string { return "lr" }

// Rule implements wrapper.Portable, matching Wrapper.Rule.
func (c *Compiled) Rule() string { return fmt.Sprintf("LR(%q, %q)", c.Left, c.Right) }

// applyScratch is one page's working storage, pooled so that steady-state
// serving allocates only the result slice: the page's serialization and the
// spans of its text nodes in it. ApplyPage fills it from a tree; ApplyHTML
// is its htmlparse.Handler, filling it from the parser's events.
type applyScratch struct {
	html  []byte
	spans []dom.TextSpan
	// texts, on the ApplyHTML path, holds each span's text in place of
	// the node there is none of.
	texts []string
}

var scratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// maxPooledHTML bounds the serialization an idle scratch keeps: a
// pathological page must not pin its tens of megabytes in the pool.
const maxPooledHTML = 4 << 20

// release returns the scratch to the pool holding no reference to the page
// — its tree or its source. An oversized one is dropped instead.
func (sc *applyScratch) release() {
	if cap(sc.html) > maxPooledHTML {
		return
	}
	clear(sc.spans)
	clear(sc.texts)
	sc.html, sc.spans, sc.texts = sc.html[:0], sc.spans[:0], sc.texts[:0]
	scratchPool.Put(sc)
}

// ApplyPage implements wrapper.Portable: serialize the page the same way
// corpus construction does, then match every extractable text node whose
// left context ends with Left and whose right context begins with Right.
// Matches are compacted to the front of the span list as they are found, so
// the result is sized exactly and nodes come out in document order.
func (c *Compiled) ApplyPage(root *dom.Node) []*dom.Node {
	sc := scratchPool.Get().(*applyScratch)
	defer sc.release()
	sc.html = dom.AppendHTML(sc.html, root, &sc.spans)
	k := 0
	for _, sp := range sc.spans {
		if corpus.IsExtractableText(sp.Node) && c.matches(sc.html, sp) {
			sc.spans[k] = sp
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]*dom.Node, k)
	for i, sp := range sc.spans[:k] {
		out[i] = sp.Node
	}
	return out
}

// ApplyHTML implements wrapper.Portable. The delimiters match the canonical
// serialization, which is a function of the parser's event sequence alone:
// the scratch writes dom.AppendHTML's bytes as the events arrive and notes
// where each extractable text fell, and the spans are matched at the end of
// the page — no tree in between.
func (c *Compiled) ApplyHTML(html string) []string {
	sc := scratchPool.Get().(*applyScratch)
	defer sc.release()
	htmlparse.Stream(html, sc)
	k := 0
	for i, sp := range sc.spans {
		if c.matches(sc.html, sp) {
			sc.texts[k] = sc.texts[i]
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]string, k)
	copy(out, sc.texts)
	return out
}

// StartElement implements htmlparse.Handler. A leaf that is not void still
// serializes with its end tag.
func (sc *applyScratch) StartElement(tag string, attrs []dom.Attr, container bool) {
	sc.html = dom.AppendStartTag(sc.html, tag, attrs)
	if !container && !dom.IsVoid(tag) {
		sc.html = dom.AppendEndTag(sc.html, tag)
	}
}

// EndElement implements htmlparse.Handler.
func (sc *applyScratch) EndElement(tag string) { sc.html = dom.AppendEndTag(sc.html, tag) }

// WantText implements htmlparse.Handler: every text is part of the stream.
func (sc *applyScratch) WantText() bool { return true }

// Text implements htmlparse.Handler, keeping a span for the texts
// corpus.IsExtractableText would.
func (sc *applyScratch) Text(data string, raw bool) {
	start := len(sc.html)
	sc.html = dom.AppendText(sc.html, data, raw)
	if trimmed := strings.TrimSpace(data); !raw && trimmed != "" {
		sc.spans = append(sc.spans, dom.TextSpan{Start: start, End: len(sc.html)})
		sc.texts = append(sc.texts, trimmed)
	}
}

func (c *Compiled) matches(html []byte, sp dom.TextSpan) bool {
	if sp.Start < len(c.Left) || sp.End+len(c.Right) > len(html) {
		return false
	}
	return string(html[sp.Start-len(c.Left):sp.Start]) == c.Left &&
		string(html[sp.End:sp.End+len(c.Right)]) == c.Right
}

var _ wrapper.Portable = (*Compiled)(nil)
