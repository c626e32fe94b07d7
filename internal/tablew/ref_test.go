package tablew

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/testutil/corpustree"
	"autowrap/internal/wrapper"
)

// refTable is TABLE's feature space as wrapper.FeatureSpace kept it when
// every node's list was sorted (Seal) and induction intersected sorted
// lists: the same (row, col) features interned in the order New names
// them, each cell text's two features — two Attach calls to one node —
// held in id order.
type refTable struct {
	ids   map[[2]string]int32 // (kind, value) -> feature id
	feats [][2]string         // feature id -> (kind, value)
	lists [][]int32           // ordinal -> sorted feature ids
}

func refNew(c *corpus.Corpus) *refTable {
	rt := &refTable{ids: map[[2]string]int32{}, lists: make([][]int32, c.NumTexts())}
	add := func(ord int, kind, value string) {
		key := [2]string{kind, value}
		fid, ok := rt.ids[key]
		if !ok {
			fid = int32(len(rt.feats))
			rt.ids[key] = fid
			rt.feats = append(rt.feats, key)
		}
		rt.lists[ord] = append(rt.lists[ord], fid)
	}
	texts := corpustree.Of(c).Texts
	for ord := 0; ord < c.NumTexts(); ord++ {
		cell := refEnclosingCell(texts[ord])
		if cell == nil || cell.Parent == nil || !cell.Parent.IsElement("tr") {
			continue
		}
		add(ord, AttrRow.Kind, itoa(cell.Parent.ChildNumber()))
		add(ord, AttrCol.Kind, itoa(cell.ChildNumber()))
	}
	for _, l := range rt.lists {
		slices.Sort(l)
	}
	return rt
}

func refEnclosingCell(n *dom.Node) *dom.Node {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.IsElement("td") || p.IsElement("th") {
			return p
		}
	}
	return nil
}

// induce intersects the labels' sorted lists and extracts every node that
// has the intersection.
func (rt *refTable) induce(labels *bitset.Set) ([]int32, *bitset.Set) {
	var inter []int32
	for i, ord := range labels.Indices() {
		if i == 0 {
			inter = slices.Clone(rt.lists[ord])
			continue
		}
		inter = slices.DeleteFunc(inter, func(fid int32) bool {
			_, found := slices.BinarySearch(rt.lists[ord], fid)
			return !found
		})
	}
	out := bitset.New(labels.Len())
	for ord, l := range rt.lists {
		if !slices.ContainsFunc(inter, func(fid int32) bool { _, found := slices.BinarySearch(l, fid); return !found }) {
			out.Add(ord)
		}
	}
	return inter, out
}

// TestNewMatchesSortedReference: grids, a page of two tables with text
// outside them, and nested tables — for random label sets the features,
// extraction, rule and subdivisions are those of the sorted-list space.
func TestNewMatchesSortedReference(t *testing.T) {
	corpora := map[string]*corpus.Corpus{
		"paper table": paperTable(),
		"grid 7x3":    BuildGrid(7, 3, func(r, c int) string { return fmt.Sprintf("r%dc%d", r, c) }),
		"two tables": corpus.ParseHTML([]string{
			`<p>lead</p><table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>
			 between<table><tr><th>h1</th><th>h2</th><th>h3</th></tr><tr><td>e</td><td><b>f</b> g</td><td>h</td></tr></table>`,
			`<table><tr><td>x<table><tr><td>in</td><td>ner</td></tr></table>y</td><td>z</td></tr></table>tail`,
		}),
	}
	rng := rand.New(rand.NewSource(4))
	for name, c := range corpora {
		fs, rt := New(c), refNew(c)
		for trial := 0; trial < 60; trial++ {
			labels := c.EmptySet()
			for n := 1 + rng.Intn(4); n > 0; n-- {
				labels.Add(rng.Intn(c.NumTexts()))
			}
			w, err := fs.Induce(labels)
			if err != nil {
				t.Fatal(err)
			}
			inter, out := rt.induce(labels)
			got := w.(*wrapper.FeatureWrapper).Features()
			if !slices.Equal(got, inter) {
				t.Fatalf("%s: labels %v: features %v, reference %v", name, labels.Indices(), got, inter)
			}
			if !w.Extract().Equal(out) {
				t.Fatalf("%s: labels %v: extracts %v, reference %v", name, labels.Indices(), w.Extract().Indices(), out.Indices())
			}
			if want := renderRule(fs, inter); w.Rule() != want {
				t.Fatalf("%s: labels %v: rule %q, reference %q", name, labels.Indices(), w.Rule(), want)
			}
			for _, a := range []wrapper.Attr{AttrRow, AttrCol} {
				var want []*bitset.Set
				byValue := map[string]*bitset.Set{}
				labels.ForEach(func(ord int) {
					for _, fid := range rt.lists[ord] {
						if rt.feats[fid][0] == a.Kind {
							g := byValue[rt.feats[fid][1]]
							if g == nil {
								g = c.EmptySet()
								byValue[rt.feats[fid][1]] = g
								want = append(want, g)
							}
							g.Add(ord)
						}
					}
				})
				if got := fs.Subdivide(labels, a); !slices.EqualFunc(got, want, (*bitset.Set).Equal) {
					t.Fatalf("%s: labels %v: subdivision by %v differs from the reference", name, labels.Indices(), a)
				}
			}
		}
	}
}
