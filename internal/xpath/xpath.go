// Package xpath implements the xpath fragment used by the XPATH wrapper
// language of Dalvi et al. [6] as summarized in the paper (Sec. 5):
// child edges (/), descendant edges (//), attribute filters
// ([@class='dealerlinks']) and child-number filters (td[2]), with an
// optional trailing text() selector.
package xpath

import (
	"fmt"
	"strings"
	"sync"

	"autowrap/internal/dom"
)

// Axis is the relationship between consecutive steps.
type Axis uint8

const (
	// Child is the '/' edge.
	Child Axis = iota
	// Descendant is the '//' edge.
	Descendant
)

// Pred is one step predicate: either an attribute equality or a child index.
type Pred struct {
	// Attr/Value form [@attr='value'] when Attr != "".
	Attr  string
	Value string
	// Index forms [k] when Index > 0 (1-based same-tag child number).
	Index int
}

// Step selects elements by tag ("*" matches any) refined by predicates.
type Step struct {
	Axis  Axis
	Tag   string
	Preds []Pred
}

// Expr is a parsed xpath expression.
type Expr struct {
	Steps []Step
	// Text selects the text-node children of the final element set, as in
	// a trailing "/text()".
	Text bool
}

// Parse parses an expression such as
// //div[@class='dealerlinks']/table[1]/tr/td[2]/text() .
func Parse(s string) (*Expr, error) {
	p := &parser{src: strings.TrimSpace(s)}
	e, err := p.expr()
	if err != nil {
		return nil, fmt.Errorf("xpath: %w (at offset %d of %q)", err, p.pos, p.src)
	}
	return e, nil
}

// MustParse panics on parse errors; for literals in tests and examples.
func MustParse(s string) *Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src string
	pos int
}

func (p *parser) expr() (*Expr, error) {
	e := &Expr{}
	if len(p.src) == 0 {
		return nil, fmt.Errorf("empty expression")
	}
	for p.pos < len(p.src) {
		axis := Child
		if !p.eat("/") {
			return nil, fmt.Errorf("expected '/'")
		}
		if p.eat("/") {
			axis = Descendant
		}
		if p.eatWord("text()") {
			e.Text = true
			if p.pos != len(p.src) {
				return nil, fmt.Errorf("text() must be the final step")
			}
			if axis == Descendant && len(e.Steps) == 0 {
				// "//text()" alone: all text nodes. Represent as a single
				// descendant * step with Text.
				e.Steps = append(e.Steps, Step{Axis: Descendant, Tag: "*"})
				e.Text = true
				return e, nil
			}
			if axis == Descendant {
				// ".../..//text()" - text under any descendant.
				e.Steps = append(e.Steps, Step{Axis: Descendant, Tag: "*"})
			}
			return e, nil
		}
		st := Step{Axis: axis}
		tag := p.name()
		if tag == "" {
			if p.eat("*") {
				tag = "*"
			} else {
				return nil, fmt.Errorf("expected tag name or '*'")
			}
		}
		st.Tag = strings.ToLower(tag)
		for p.eat("[") {
			pred, err := p.pred()
			if err != nil {
				return nil, err
			}
			if !p.eat("]") {
				return nil, fmt.Errorf("expected ']'")
			}
			st.Preds = append(st.Preds, pred)
		}
		e.Steps = append(e.Steps, st)
	}
	if len(e.Steps) == 0 {
		return nil, fmt.Errorf("no steps")
	}
	return e, nil
}

func (p *parser) pred() (Pred, error) {
	if p.eat("@") {
		attr := p.name()
		if attr == "" {
			return Pred{}, fmt.Errorf("expected attribute name after '@'")
		}
		if !p.eat("=") {
			return Pred{}, fmt.Errorf("expected '=' in attribute predicate")
		}
		quote := byte(0)
		if p.pos < len(p.src) && (p.src[p.pos] == '\'' || p.src[p.pos] == '"') {
			quote = p.src[p.pos]
			p.pos++
		} else {
			return Pred{}, fmt.Errorf("expected quoted attribute value")
		}
		// A literal holds its own quote doubled (XPath 2.0), so any value
		// can be written: see Quote.
		var val strings.Builder
		for {
			end := strings.IndexByte(p.src[p.pos:], quote)
			if end < 0 {
				return Pred{}, fmt.Errorf("unterminated attribute value")
			}
			val.WriteString(p.src[p.pos : p.pos+end])
			p.pos += end + 1
			if p.pos >= len(p.src) || p.src[p.pos] != quote {
				break
			}
			val.WriteByte(quote)
			p.pos++
		}
		return Pred{Attr: strings.ToLower(attr), Value: val.String()}, nil
	}
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return Pred{}, fmt.Errorf("expected '@attr=...' or child index")
	}
	// maxChildIndex bounds [k] filters; beyond it the digits would overflow
	// int on 32-bit hosts (and no real page has a billion same-tag
	// siblings). Rules can arrive from a persisted store, so reject rather
	// than silently wrap — checking before the multiply, which could
	// itself overflow on 32-bit ints.
	const maxChildIndex = 1 << 30
	idx := 0
	for _, c := range p.src[start:p.pos] {
		if idx > maxChildIndex/10 {
			return Pred{}, fmt.Errorf("child index %q too large", p.src[start:p.pos])
		}
		idx = idx*10 + int(c-'0')
		if idx > maxChildIndex {
			return Pred{}, fmt.Errorf("child index %q too large", p.src[start:p.pos])
		}
	}
	if idx == 0 {
		return Pred{}, fmt.Errorf("child index must be >= 1")
	}
	return Pred{Index: idx}, nil
}

func (p *parser) eat(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) eatWord(s string) bool { return p.eat(s) }

// name scans a tag or attribute name: the bytes the HTML tokenizer takes for
// one, or a rule learned from a page could name what no rule can.
func (p *parser) name() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == ':' || c == '.' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

// Quote renders s as a string literal: single-quoted, a single quote inside
// it doubled. Parse reads it back to s, whatever s holds.
func Quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// String renders the expression back to xpath syntax; Parse of the result
// is the expression again.
func (e *Expr) String() string {
	var sb strings.Builder
	for _, st := range e.Steps {
		if st.Axis == Descendant {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		sb.WriteString(st.Tag)
		for _, pr := range st.Preds {
			if pr.Attr != "" {
				fmt.Fprintf(&sb, "[@%s=%s]", pr.Attr, Quote(pr.Value))
			} else {
				fmt.Fprintf(&sb, "[%d]", pr.Index)
			}
		}
	}
	if e.Text {
		sb.WriteString("/text()")
	}
	return sb.String()
}

// evalScratch holds the reusable node sets of the slice-based Eval fast
// path. Pooled because a Compiled expression is evaluated concurrently from
// many serving goroutines.
type evalScratch struct{ cur, next []*dom.Node }

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// Eval returns the nodes selected by e from the given document root, in
// document (preorder) order without duplicates. When e.Text is set the
// result contains text nodes, otherwise elements.
//
// The implementation walks slices instead of per-step maps: as long as the
// working set stays free of ancestor/descendant pairs, child and descendant
// expansion of a document-ordered set yields a document-ordered, duplicate-
// free set, so no dedup map or final reordering walk is needed. The moment
// a descendant step produces nested matches (one selected node inside
// another) the remaining steps fall back to evalSlow, the original
// map-based implementation, which handles arbitrary overlap.
func (e *Expr) Eval(root *dom.Node) []*dom.Node {
	s := evalPool.Get().(*evalScratch)
	cur := append(s.cur[:0], root)
	next := s.next[:0]
	nested := false
	fallback := false
	for si := range e.Steps {
		if nested {
			// A nested working set breaks the order/uniqueness invariants
			// of slice expansion; redo the whole walk the slow way.
			fallback = true
			break
		}
		st := e.Steps[si]
		next = next[:0]
		switch st.Axis {
		case Child:
			for _, n := range cur {
				for _, ch := range n.Children {
					if matchStep(ch, st) {
						next = append(next, ch)
					}
				}
			}
		case Descendant:
			for _, n := range cur {
				n.Walk(func(d *dom.Node) bool {
					if d != n && matchStep(d, st) {
						next = append(next, d)
					}
					return true
				})
			}
			// Nesting can only appear on a descendant step. Detect it
			// conservatively (only when a later step or text() will consume
			// the set): a match with a strict ancestor that also matches
			// the step may contain another selected node.
			if si+1 < len(e.Steps) || e.Text {
			detect:
				for _, m := range next {
					for p := m.Parent; p != nil; p = p.Parent {
						if matchStep(p, st) {
							nested = true
							break detect
						}
					}
				}
			}
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	var out []*dom.Node
	switch {
	case fallback || (nested && e.Text):
		out = e.evalSlow(root)
	case e.Text:
		count := 0
		for _, n := range cur {
			for _, ch := range n.Children {
				if ch.Type == dom.TextNode {
					count++
				}
			}
		}
		if count > 0 {
			out = make([]*dom.Node, 0, count)
			for _, n := range cur {
				for _, ch := range n.Children {
					if ch.Type == dom.TextNode {
						out = append(out, ch)
					}
				}
			}
		}
	case len(cur) > 0:
		out = make([]*dom.Node, len(cur))
		copy(out, cur)
	}
	s.cur, s.next = cur[:0], next[:0]
	evalPool.Put(s)
	return out
}

// evalSlow is the original map-based evaluation: correct for any step
// sequence, including working sets where selected nodes nest inside each
// other, at the cost of per-step map allocation and a final ordering walk.
func (e *Expr) evalSlow(root *dom.Node) []*dom.Node {
	cur := map[*dom.Node]bool{root: true}
	for _, st := range e.Steps {
		next := make(map[*dom.Node]bool)
		for n := range cur {
			switch st.Axis {
			case Child:
				for _, ch := range n.Children {
					if matchStep(ch, st) {
						next[ch] = true
					}
				}
			case Descendant:
				n.Walk(func(d *dom.Node) bool {
					if d != n && matchStep(d, st) {
						next[d] = true
					}
					return true
				})
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	var out []*dom.Node
	if e.Text {
		seen := make(map[*dom.Node]bool)
		for n := range cur {
			for _, ch := range n.Children {
				if ch.Type == dom.TextNode && !seen[ch] {
					seen[ch] = true
				}
			}
		}
		root.Walk(func(d *dom.Node) bool {
			if seen[d] {
				out = append(out, d)
			}
			return true
		})
		return out
	}
	root.Walk(func(d *dom.Node) bool {
		if cur[d] {
			out = append(out, d)
		}
		return true
	})
	return out
}

func matchStep(n *dom.Node, st Step) bool {
	if n.Type != dom.ElementNode {
		return false
	}
	if st.Tag != "*" && n.Tag != st.Tag {
		return false
	}
	for _, pr := range st.Preds {
		if pr.Attr != "" {
			v, ok := n.Attr(pr.Attr)
			if !ok || v != pr.Value {
				return false
			}
		} else if n.ChildNumber() != pr.Index {
			return false
		}
	}
	return true
}
