package lr

import (
	"fmt"
	"sync"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
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

// applyScratch is one ApplyPage call's working storage, pooled so that
// steady-state serving allocates only the result slice.
type applyScratch struct {
	html  []byte
	spans []dom.TextSpan
}

var scratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// ApplyPage implements wrapper.Portable: serialize the page the same way
// corpus construction does, then match every extractable text node whose
// left context ends with Left and whose right context begins with Right.
// Matches are compacted to the front of the span list as they are found, so
// the result is sized exactly and nodes come out in document order.
func (c *Compiled) ApplyPage(root *dom.Node) []*dom.Node {
	sc := scratchPool.Get().(*applyScratch)
	defer func() {
		clear(sc.spans) // a pooled scratch must not pin the page's tree
		sc.html, sc.spans = sc.html[:0], sc.spans[:0]
		scratchPool.Put(sc)
	}()
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

func (c *Compiled) matches(html []byte, sp dom.TextSpan) bool {
	if sp.Start < len(c.Left) || sp.End+len(c.Right) > len(html) {
		return false
	}
	return string(html[sp.Start-len(c.Left):sp.Start]) == c.Left &&
		string(html[sp.End:sp.End+len(c.Right)]) == c.Right
}

var _ wrapper.Portable = (*Compiled)(nil)
