// Package tablew implements TABLE, the hypothetical wrapper inductor the
// paper uses as its running example (Examples 1–3). TABLE works on a table
// of cells: a single label generalizes to itself, labels within one row (or
// column) generalize to that row (column), and labels spanning at least two
// rows and columns generalize to the whole table.
//
// As Example 3 shows, TABLE is the feature-based inductor whose features are
// (row, i) and (col, j); this package builds exactly that feature space, so
// it inherits well-behavedness and works with both enumeration algorithms.
package tablew

import (
	"fmt"
	"strings"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/wrapper"
)

// AttrRow and AttrCol are TABLE's two attributes.
var (
	AttrRow = wrapper.Attr{Kind: "row"}
	AttrCol = wrapper.Attr{Kind: "col"}
)

// New builds the TABLE inductor over a corpus whose pages contain <table>
// markup: every text node inside a <td> (or <th>) receives (row, i) and
// (col, j) features; text outside tables carries no features.
func New(c *corpus.Corpus) *wrapper.FeatureSpace {
	fs := wrapper.NewFeatureSpace("table", c, renderRule)
	for ord := 0; ord < c.NumTexts(); ord++ {
		cell := enclosingCell(c, c.TextParent(ord))
		if cell < 0 {
			continue
		}
		row := c.Element(cell).Parent // the <tr>
		if row < 0 || c.Element(row).Tag != "tr" {
			continue
		}
		fs.AddFeature(ord, AttrRow, itoa(c.Element(row).ChildNumber))
		fs.AddFeature(ord, AttrCol, itoa(c.Element(cell).ChildNumber))
	}
	return fs
}

// BuildGrid constructs a one-page corpus holding an rows×cols table whose
// cell contents come from cellText. It is the scaffolding for the paper's
// Example 1/2 tests and for property tests of enumeration algorithms.
func BuildGrid(rows, cols int, cellText func(r, c int) string) *corpus.Corpus {
	doc := dom.NewDocument()
	html := doc.Append(dom.NewElement("html"))
	body := html.Append(dom.NewElement("body"))
	table := body.Append(dom.NewElement("table"))
	for r := 1; r <= rows; r++ {
		tr := table.Append(dom.NewElement("tr"))
		for cc := 1; cc <= cols; cc++ {
			td := tr.Append(dom.NewElement("td"))
			td.Append(dom.NewText(cellText(r, cc)))
		}
	}
	return corpus.New([]*dom.Node{doc})
}

// enclosingCell returns the nearest <td> or <th> among element e and its
// ancestors, or -1.
func enclosingCell(c *corpus.Corpus, e int) int {
	for ; e >= 0; e = c.Element(e).Parent {
		if tag := c.Element(e).Tag; tag == "td" || tag == "th" {
			return e
		}
	}
	return -1
}

func renderRule(fs *wrapper.FeatureSpace, featIDs []int32) string {
	if len(featIDs) == 0 {
		return "TABLE(*)"
	}
	var parts []string
	for _, fid := range featIDs {
		parts = append(parts, fmt.Sprintf("%s=%s", fs.FeatureAttr(fid).Kind, fs.FeatureValue(fid)))
	}
	return "TABLE(" + strings.Join(parts, ",") + ")"
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
