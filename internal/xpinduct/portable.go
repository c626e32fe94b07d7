package xpinduct

import (
	"fmt"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpath"
)

// Compiled is the portable form of an XPATH wrapper: the rendered rule
// parsed once into an *xpath.Expr and evaluated against any page root.
// Extraction keeps only the extractable text-node universe
// (corpus.IsExtractableText), matching what induction indexed.
type Compiled struct {
	expr *xpath.Expr
}

// Compile converts an induced XPATH wrapper into its portable form by
// parsing the wrapper's rendered rule. Only wrappers from the xpath feature
// space compile; TABLE or other feature wrappers are rejected.
func Compile(w wrapper.Wrapper) (*Compiled, error) {
	fw, ok := w.(*wrapper.FeatureWrapper)
	if !ok || fw.Space().Name() != "xpath" {
		return nil, fmt.Errorf("xpinduct: cannot compile %T into a portable xpath wrapper", w)
	}
	return CompileRule(w.Rule())
}

// CompileRule compiles an xpath rule string — the store's load path, where
// rules arrive from persisted JSON rather than a live wrapper.
func CompileRule(rule string) (*Compiled, error) {
	expr, err := xpath.Parse(rule)
	if err != nil {
		return nil, fmt.Errorf("xpinduct: compile: %w", err)
	}
	if !expr.Text {
		return nil, fmt.Errorf("xpinduct: compile: rule %q does not select text nodes", rule)
	}
	return &Compiled{expr: expr}, nil
}

// Lang implements wrapper.Portable.
func (c *Compiled) Lang() string { return "xpath" }

// Rule implements wrapper.Portable.
func (c *Compiled) Rule() string { return c.expr.String() }

// ApplyPage implements wrapper.Portable.
func (c *Compiled) ApplyPage(root *dom.Node) []*dom.Node {
	nodes := c.expr.Eval(root)
	out := make([]*dom.Node, 0, len(nodes))
	for _, n := range nodes {
		if corpus.IsExtractableText(n) {
			out = append(out, n)
		}
	}
	return out
}

// ApplyHTML implements wrapper.Portable: the expression matched while the
// page is tokenized (xpath.Expr.ApplyHTML applies the extractable-text
// filter itself).
func (c *Compiled) ApplyHTML(html string) []string { return c.expr.ApplyHTML(html) }

var _ wrapper.Portable = (*Compiled)(nil)
