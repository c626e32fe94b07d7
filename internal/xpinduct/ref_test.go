package xpinduct

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/gen"
	"autowrap/internal/testutil/corpustree"
	"autowrap/internal/wrapper"
)

// refSpace is the feature construction New replaced, kept as the reference
// the one-pass build is compared with: for every text node, walk its
// ancestor chain, recount each ancestor's same-tag siblings, and intern one
// concatenated key per (text, ancestor, feature). Its lists are sorted, as
// wrapper.FeatureSpace's were, and it induces as FeatureSpace did then, by
// intersecting sorted lists; it shares nothing with wrapper.FeatureSpace.
type refSpace struct {
	attrs     []wrapper.Attr
	attrIDs   map[wrapper.Attr]int32
	byKey     map[string]int32
	featAttr  []int32
	featVal   []string
	nodeFeats [][]int32 // ordinal -> sorted feature ids
}

func refNew(c *corpus.Corpus, opt Options) *refSpace {
	ignored := make(map[string]bool, len(opt.IgnoreAttrs))
	for _, k := range opt.IgnoreAttrs {
		ignored[strings.ToLower(k)] = true
	}
	rs := &refSpace{
		attrIDs:   make(map[wrapper.Attr]int32),
		byKey:     make(map[string]int32),
		nodeFeats: make([][]int32, c.NumTexts()),
	}
	texts := corpustree.Of(c).Texts
	for ord := 0; ord < c.NumTexts(); ord++ {
		pos := 0
		for _, anc := range texts[ord].Ancestors() {
			pos++
			if opt.MaxDepth > 0 && pos > opt.MaxDepth {
				break
			}
			rs.add(ord, wrapper.Attr{Kind: "tag", Pos: pos}, anc.Tag)
			rs.add(ord, wrapper.Attr{Kind: "cn", Pos: pos}, strconv.Itoa(anc.ChildNumber()))
			for _, a := range anc.Attrs {
				if !ignored[a.Key] {
					rs.add(ord, wrapper.Attr{Kind: "@" + a.Key, Pos: pos}, a.Val)
				}
			}
		}
	}
	for _, f := range rs.nodeFeats {
		slices.Sort(f)
	}
	return rs
}

func (rs *refSpace) add(ord int, a wrapper.Attr, value string) {
	aid, ok := rs.attrIDs[a]
	if !ok {
		aid = int32(len(rs.attrs))
		rs.attrIDs[a] = aid
		rs.attrs = append(rs.attrs, a)
	}
	key := string([]byte{byte(aid), byte(aid >> 8), byte(aid >> 16), byte(aid >> 24)}) + value
	fid, ok := rs.byKey[key]
	if !ok {
		fid = int32(len(rs.featVal))
		rs.byKey[key] = fid
		rs.featAttr = append(rs.featAttr, aid)
		rs.featVal = append(rs.featVal, value)
	}
	if !slices.Contains(rs.nodeFeats[ord], fid) {
		rs.nodeFeats[ord] = append(rs.nodeFeats[ord], fid)
	}
}

// induce is φ(L): intersect the labels' sorted lists, extract every node
// that has them all.
func (rs *refSpace) induce(c *corpus.Corpus, labels *bitset.Set) (inter []int32, out *bitset.Set) {
	first := true
	labels.ForEach(func(ord int) {
		if first {
			inter, first = slices.Clone(rs.nodeFeats[ord]), false
			return
		}
		inter = intersectSorted(inter, rs.nodeFeats[ord])
	})
	out = c.EmptySet()
	for ord, feats := range rs.nodeFeats {
		all := true
		for _, fid := range inter {
			if !slices.Contains(feats, fid) {
				all = false
				break
			}
		}
		if all {
			out.Add(ord)
		}
	}
	return inter, out
}

func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// featureOf is node ord's feature of attribute a: the first in its sorted
// list.
func (rs *refSpace) featureOf(ord int, a wrapper.Attr) (int32, bool) {
	for _, fid := range rs.nodeFeats[ord] {
		if rs.attrs[rs.featAttr[fid]] == a {
			return fid, true
		}
	}
	return 0, false
}

// subdivide partitions s by the value of attribute a, the groups in the
// order their first members come.
func (rs *refSpace) subdivide(c *corpus.Corpus, s *bitset.Set, a wrapper.Attr) []*bitset.Set {
	var groups []*bitset.Set
	byFeat := map[int32]*bitset.Set{}
	s.ForEach(func(ord int) {
		if fid, ok := rs.featureOf(ord, a); ok {
			g := byFeat[fid]
			if g == nil {
				g = c.EmptySet()
				byFeat[fid] = g
				groups = append(groups, g)
			}
			g.Add(ord)
		}
	})
	return groups
}

// checkAgainstRef holds New to the reference on one corpus: the same
// feature ids on every node, the same attribute and value behind every id,
// and the same features, extraction and rule for random label subsets.
func checkAgainstRef(t *testing.T, name string, c *corpus.Corpus, opt Options, rng *rand.Rand) {
	t.Helper()
	fs, rs := New(c, opt), refNew(c, opt)
	for ord := 0; ord < c.NumTexts(); ord++ {
		w, err := fs.Induce(c.SetOf(ord))
		if err != nil {
			t.Fatal(err)
		}
		if got := w.(*wrapper.FeatureWrapper).Features(); !slices.Equal(got, rs.nodeFeats[ord]) {
			t.Fatalf("%s: node %d (%q): feature ids %v, reference %v",
				name, ord, c.TextContent(ord), got, rs.nodeFeats[ord])
		}
	}
	for fid := range rs.featVal {
		a, v := fs.FeatureAttr(int32(fid)), fs.FeatureValue(int32(fid))
		if a != rs.attrs[rs.featAttr[fid]] || v != rs.featVal[fid] {
			t.Fatalf("%s: feature %d is %v=%q, reference %v=%q",
				name, fid, a, v, rs.attrs[rs.featAttr[fid]], rs.featVal[fid])
		}
	}
	for trial := 0; trial < 40 && c.NumTexts() > 0; trial++ {
		labels := c.EmptySet()
		for n := 1 + rng.Intn(6); n > 0; n-- {
			labels.Add(rng.Intn(c.NumTexts()))
		}
		w, err := fs.Induce(labels)
		if err != nil {
			t.Fatal(err)
		}
		inter, out := rs.induce(c, labels)
		if got := w.(*wrapper.FeatureWrapper).Features(); !slices.Equal(got, inter) {
			t.Fatalf("%s: labels %v: features %v, reference %v", name, labels.Indices(), got, inter)
		}
		if !w.Extract().Equal(out) {
			t.Fatalf("%s: labels %v: extracts %v, reference %v",
				name, labels.Indices(), w.Extract().Indices(), out.Indices())
		}
		if got, want := w.Rule(), renderRule(fs, inter); got != want {
			t.Fatalf("%s: labels %v: rule %q, reference %q", name, labels.Indices(), got, want)
		}
		// Subdivide and AttrValue read the unsorted lists.
		for _, a := range fs.Attrs(labels) {
			got, want := fs.Subdivide(labels, a), rs.subdivide(c, labels, a)
			if !slices.EqualFunc(got, want, (*bitset.Set).Equal) {
				t.Fatalf("%s: labels %v: subdivision by %v differs from the reference", name, labels.Indices(), a)
			}
			labels.ForEach(func(ord int) {
				v, ok := fs.AttrValue(ord, a)
				fid, refOK := rs.featureOf(ord, a)
				if ok != refOK || ok && v != rs.featVal[fid] {
					t.Fatalf("%s: node %d: %v is %q (%v), reference %q (%v)", name, ord, a, v, ok, rs.featVal[fid], refOK)
				}
			})
		}
	}
}

var refOptions = []Options{
	{},
	{MaxDepth: 1},
	{MaxDepth: 3},
	{IgnoreAttrs: []string{"class", "ID"}},
	{MaxDepth: 4, IgnoreAttrs: []string{"href"}},
}

// TestNewMatchesReferenceOnGeneratedSites: dealer sites of every layout, at
// drift 0–3, under every option set.
func TestNewMatchesReferenceOnGeneratedSites(t *testing.T) {
	pool := gen.BusinessPool(5, 600, 0)
	rng := rand.New(rand.NewSource(9))
	layouts := map[string]bool{}
	for seed := int64(300); seed < 312; seed++ {
		for drift := 0; drift <= 3; drift++ {
			site, err := gen.DealerSite(gen.DealerConfig{Seed: seed, Pool: pool, NumPages: 3, Drift: drift})
			if err != nil {
				t.Fatal(err)
			}
			layouts[site.Layout] = true
			for i, opt := range refOptions {
				checkAgainstRef(t, fmt.Sprintf("%s drift %d options %d", site.Name, drift, i), site.Corpus, opt, rng)
			}
		}
	}
	if len(layouts) < 5 {
		t.Fatalf("only layouts %v were drawn", layouts)
	}
}

// TestNewMatchesReferenceOnOddMarkup: the shapes a generator does not make —
// duplicate attributes (same and different values), upper-case names,
// raw-text and void elements, text at the root and between blocks,
// implied end tags, deep single-child chains and an empty page.
func TestNewMatchesReferenceOnOddMarkup(t *testing.T) {
	pages := []string{
		`top-level text<p class="a" class="a" CLASS="b" id=x>dup <b>attrs</b></p><p class="b" class="a">again</p>`,
		`<html><head><title>T</title><style>p{color:red}</style><script>var a = "<p>no</p>";</script></head>
		 <body>lead<br>after break<img src="i.png" alt="x">tail<hr/><input value="v">end</body></html>`,
		`<table><tr><td>1<td>2<tr><td>3<td>4</table><ul><li>a<li>b<ul><li>c</ul><li>d</ul>`,
		`<div><div><div><div><div><div><div><div><span data-k="1">deep</span></div></div></div></div></div></div></div></div>`,
		`<a href="/x?a=1&amp;b=2" title='q"q'>link</a><A HREF="/y">LINK</A><custom-tag x>c</custom-tag><custom-tag>d</custom-tag>`,
		``,
		`<p>one</p><q>two</q><p>three</p><q>four</q><p>five<p>six`,
	}
	rng := rand.New(rand.NewSource(10))
	c := corpus.ParseHTML(pages)
	for i, opt := range refOptions {
		checkAgainstRef(t, fmt.Sprintf("odd markup options %d", i), c, opt, rng)
	}
}
