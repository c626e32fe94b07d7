package xpath

import (
	"math/bits"
	"strings"
	"sync"

	"autowrap/internal/dom"
	"autowrap/internal/htmlparse"
)

// ApplyHTML evaluates e on a page without building its tree: it returns the
// trimmed contents of the extractable text nodes — non-blank, outside
// script and style — among Eval(htmlparse.Parse(html)), in document order.
// Every predicate of the fragment (tag, attribute equality, same-tag child
// number, '/' and '//') is decided at an element's start tag, so the
// expression is matched while the page is tokenized and text that cannot be
// selected is never decoded, collapsed or copied. An expression that does
// not select text nodes yields nothing.
func (e *Expr) ApplyHTML(html string) []string {
	if !e.Text {
		return nil
	}
	m := matcherPool.Get().(*matcher)
	m.start(e)
	htmlparse.Stream(html, m)
	var out []string
	if len(m.out) > 0 {
		out = make([]string, len(m.out))
		copy(out, m.out)
	}
	if cap(m.out) <= maxPooledTexts { // or a pathological page pins its megabytes in the pool
		m.finish()
		matcherPool.Put(m)
	}
	return out
}

// maxPooledTexts bounds the result scratch an idle matcher keeps.
const maxPooledTexts = 1 << 14

// matcher is the htmlparse.Handler that runs an expression over the
// parser's events. State i of an element means steps[:i] lead to it; the
// document is in state 0 and an element in state len(steps) is selected. An
// element's states follow from its parent's (child steps) and from the
// union over its ancestors (descendant steps), so one frame per open
// element is all the memory a page needs.
type matcher struct {
	steps []Step
	// words is the length of a state set in uint64s: one for any rule up
	// to 63 steps, and no ceiling.
	words int
	// child and desc hold bit i when steps[i] is a '/' or a '//' step.
	child, desc []uint64
	// frames has one entry per open element under frames[0], the
	// document; entries past the top keep their storage. sets holds each
	// frame's state sets back to back.
	frames []frame
	sets   []uint64
	depth  int
	out    []string
}

// frame is one open element.
type frame struct {
	// selected: the element is in the final state, its text is wanted.
	selected bool
	// counts tallies the element's children by tag as they start, for the
	// same-tag child number — only the tags a step that could match a
	// child puts an index on.
	counts dom.ChildCounter
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// A frame's sets, words each: under, the union of the states of the element
// and its ancestors, and cand, the steps a child of it may match — the
// element's own states on child steps, under on descendant steps.
func (m *matcher) under(level int) []uint64 {
	return m.sets[2*level*m.words:][:m.words]
}

func (m *matcher) cand(level int) []uint64 {
	return m.sets[(2*level+1)*m.words:][:m.words]
}

// level makes room for a frame at the given depth.
func (m *matcher) level(depth int) {
	if depth == len(m.frames) {
		m.frames = append(m.frames, frame{})
	}
	for len(m.sets) < 2*(depth+1)*m.words {
		m.sets = append(m.sets, 0)
	}
}

func (m *matcher) start(e *Expr) {
	m.steps = e.Steps
	m.words = len(e.Steps)/64 + 1
	m.child = append(m.child[:0], make([]uint64, m.words)...)
	m.desc = append(m.desc[:0], make([]uint64, m.words)...)
	for i, st := range e.Steps {
		if st.Axis == Child {
			m.child[i/64] |= 1 << (i % 64)
		} else {
			m.desc[i/64] |= 1 << (i % 64)
		}
	}
	m.sets = m.sets[:0]
	m.depth = 0
	m.level(0)
	m.cand(0)[0] = 1 // the document is in state 0
	m.enter(0)
}

// enter opens the frame at the given depth for an element whose own states
// sit in the frame's cand slot.
func (m *matcher) enter(depth int) {
	last := len(m.steps)
	under, cand := m.under(depth), m.cand(depth)
	m.frames[depth].selected = cand[last/64]&(1<<(last%64)) != 0
	for w := range cand {
		if depth > 0 {
			under[w] = m.under(depth - 1)[w]
		}
		under[w] |= cand[w]
		cand[w] = cand[w]&m.child[w] | under[w]&m.desc[w]
	}
}

// finish drops every reference into the page: the results, and the
// document's child tags (an element's are dropped as it ends).
func (m *matcher) finish() {
	m.steps = nil
	clear(m.out)
	m.out = m.out[:0]
	m.leave(0)
}

func (m *matcher) leave(depth int) { m.frames[depth].counts.Reset() }

// StartElement implements htmlparse.Handler: the element's states are the
// candidate steps of its parent that its tag, attributes and child number
// satisfy, each moved one step on.
func (m *matcher) StartElement(tag string, attrs []dom.Attr, container bool) {
	m.level(m.depth + 1)
	parent := &m.frames[m.depth]
	states := m.cand(m.depth + 1)
	clear(states)
	number := 0
	for w, set := range m.cand(m.depth) {
		for ; set != 0; set &= set - 1 {
			i := w*64 + bits.TrailingZeros64(set)
			st := &m.steps[i]
			if st.Tag != "*" && st.Tag != tag {
				continue
			}
			ok := true
			// No early exit: whether this child is counted must depend on
			// its tag and its parent alone, or its later siblings' numbers
			// would depend on its attributes.
			for _, pr := range st.Preds {
				if pr.Attr != "" {
					ok = ok && hasAttr(attrs, pr.Attr, pr.Value)
					continue
				}
				if number == 0 {
					number = parent.counts.Next(tag)
				}
				ok = ok && number == pr.Index
			}
			if ok {
				states[(i+1)/64] |= 1 << ((i + 1) % 64)
			}
		}
	}
	if !container {
		return // no children: nothing reads a leaf's states
	}
	m.depth++
	m.enter(m.depth)
}

// hasAttr reports whether the first attribute named key has the value val —
// dom.Node.Attr's reading of a repeated attribute.
func hasAttr(attrs []dom.Attr, key, val string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return a.Val == val
		}
	}
	return false
}

// EndElement implements htmlparse.Handler.
func (m *matcher) EndElement(string) {
	m.leave(m.depth)
	m.depth--
}

// WantText implements htmlparse.Handler: only a selected element's text.
func (m *matcher) WantText() bool { return m.frames[m.depth].selected }

// Text implements htmlparse.Handler.
func (m *matcher) Text(data string, raw bool) {
	if raw {
		return
	}
	if data = strings.TrimSpace(data); data != "" {
		m.out = append(m.out, data)
	}
}
