package wrapper

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
)

// buildSpace populates a small feature space over a 6-node corpus:
// nodes get color/shape features like a toy classification table.
func buildSpace(t *testing.T) (*corpus.Corpus, *FeatureSpace) {
	t.Helper()
	c := corpus.ParseHTML([]string{
		`<div><i>a</i><i>b</i><i>c</i><i>d</i><i>e</i><i>f</i></div>`,
	})
	if c.NumTexts() != 6 {
		t.Fatalf("universe = %d", c.NumTexts())
	}
	fs := NewFeatureSpace("toy", c, nil)
	colors := []string{"red", "red", "red", "blue", "blue", "green"}
	shapes := []string{"sq", "ci", "sq", "ci", "sq", "sq"}
	for ord := 0; ord < 6; ord++ {
		fs.AddFeature(ord, Attr{Kind: "color"}, colors[ord])
		if ord != 5 { // node f lacks the shape attribute entirely
			fs.AddFeature(ord, Attr{Kind: "shape"}, shapes[ord])
		}
	}
	return c, fs
}

func TestInduceIntersectsFeatures(t *testing.T) {
	c, fs := buildSpace(t)
	w, err := fs.Induce(c.SetOf(0, 2)) // red+sq, red+sq
	if err != nil {
		t.Fatal(err)
	}
	got := w.Extract().Indices()
	// red∧sq: nodes 0, 2 only.
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("extract = %v", got)
	}
}

func TestInducePartialIntersection(t *testing.T) {
	c, fs := buildSpace(t)
	w, err := fs.Induce(c.SetOf(0, 1)) // red+sq, red+ci -> {color=red}
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Extract().Indices(); len(got) != 3 {
		t.Fatalf("red nodes = %v", got)
	}
}

func TestInduceEmptyIntersectionMeansEverything(t *testing.T) {
	c, fs := buildSpace(t)
	w, err := fs.Induce(c.SetOf(0, 3)) // red+sq vs blue+ci -> no shared features
	if err != nil {
		t.Fatal(err)
	}
	if w.Extract().Count() != 6 {
		t.Fatalf("expected the full universe, got %d", w.Extract().Count())
	}
	if len(w.(*FeatureWrapper).Features()) != 0 {
		t.Fatal("feature set should be empty")
	}
}

func TestInduceEmptyLabelsError(t *testing.T) {
	c, fs := buildSpace(t)
	if _, err := fs.Induce(c.EmptySet()); err == nil {
		t.Fatal("expected error")
	}
}

func TestAttrsListsLabelAttributes(t *testing.T) {
	c, fs := buildSpace(t)
	attrs := fs.Attrs(c.SetOf(5)) // node f has only color
	if len(attrs) != 1 || attrs[0].Kind != "color" {
		t.Fatalf("attrs = %v", attrs)
	}
	attrs = fs.Attrs(c.SetOf(0, 5))
	if len(attrs) != 2 {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestSubdivideGroupsByValue(t *testing.T) {
	c, fs := buildSpace(t)
	all := c.FullSet()
	groups := fs.Subdivide(all, Attr{Kind: "color"})
	sizes := map[int]int{}
	for _, g := range groups {
		sizes[g.Count()]++
	}
	// red: 3, blue: 2, green: 1.
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("group sizes = %v", sizes)
	}
}

func TestSubdivideOmitsNodesWithoutAttr(t *testing.T) {
	c, fs := buildSpace(t)
	groups := fs.Subdivide(c.FullSet(), Attr{Kind: "shape"})
	total := 0
	for _, g := range groups {
		total += g.Count()
		if g.Has(5) {
			t.Fatal("node without the attribute must be omitted")
		}
	}
	if total != 5 {
		t.Fatalf("covered %d nodes, want 5", total)
	}
}

func TestSubdivideUnknownAttr(t *testing.T) {
	c, fs := buildSpace(t)
	if groups := fs.Subdivide(c.FullSet(), Attr{Kind: "nope"}); groups != nil {
		t.Fatal("unknown attribute should subdivide to nothing")
	}
}

func TestAttrValue(t *testing.T) {
	c, fs := buildSpace(t)
	_ = c
	if v, ok := fs.AttrValue(0, Attr{Kind: "color"}); !ok || v != "red" {
		t.Fatalf("AttrValue = %q, %v", v, ok)
	}
	if _, ok := fs.AttrValue(5, Attr{Kind: "shape"}); ok {
		t.Fatal("node 5 has no shape")
	}
}

func TestDefaultRuleRendering(t *testing.T) {
	c, fs := buildSpace(t)
	w, _ := fs.Induce(c.SetOf(0, 2))
	rule := w.Rule()
	if !strings.Contains(rule, "color") || !strings.Contains(rule, "red") {
		t.Fatalf("rule = %q", rule)
	}
}

func TestInduceCallCounter(t *testing.T) {
	c, fs := buildSpace(t)
	for i := 0; i < 3; i++ {
		if _, err := fs.Induce(c.SetOf(0)); err != nil {
			t.Fatal(err)
		}
	}
	if fs.InduceCalls() != 3 {
		t.Fatalf("calls = %d", fs.InduceCalls())
	}
	fs.ResetInduceCalls()
	if fs.InduceCalls() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClosureHelper(t *testing.T) {
	c, fs := buildSpace(t)
	labels := c.SetOf(0, 1, 2, 3)
	closed, err := Closure(fs, c.SetOf(0, 1), labels)
	if err != nil {
		t.Fatal(err)
	}
	// φ({0,1}) = red nodes {0,1,2}; ∩ labels = {0,1,2}.
	want := c.SetOf(0, 1, 2)
	if !closed.Equal(want) {
		t.Fatalf("closure = %v, want %v", closed.Indices(), want.Indices())
	}
}

func TestFeatureSpaceWellBehaved(t *testing.T) {
	c, fs := buildSpace(t)
	if err := CheckWellBehaved(fs, c.FullSet()); err != nil {
		t.Fatal(err)
	}
}

// brokenInductor violates monotonicity: more labels shrink the output.
type brokenInductor struct {
	c *corpus.Corpus
}

func (b *brokenInductor) Name() string           { return "broken" }
func (b *brokenInductor) Corpus() *corpus.Corpus { return b.c }
func (b *brokenInductor) Induce(labels *bitset.Set) (Wrapper, error) {
	out := b.c.FullSet()
	if labels.Count() > 1 {
		out = labels.Clone() // shrinking output on label growth
	}
	return &staticWrapper{out: out}, nil
}

type staticWrapper struct{ out *bitset.Set }

func (w *staticWrapper) Extract() *bitset.Set { return w.out }
func (w *staticWrapper) Rule() string         { return "static" }

func TestCheckWellBehavedDetectsViolation(t *testing.T) {
	c, _ := buildSpace(t)
	b := &brokenInductor{c: c}
	if err := CheckWellBehaved(b, c.SetOf(0, 1, 2)); err == nil {
		t.Fatal("expected a well-behavedness violation")
	}
}

func TestAttrString(t *testing.T) {
	if (Attr{Kind: "tag", Pos: 2}).String() != "2:tag" {
		t.Fatal("positioned attr")
	}
	if (Attr{Kind: "row"}).String() != "row" {
		t.Fatal("bare attr")
	}
}

// TestAttachInAnyOrder: features attached to nodes in a shuffled order,
// twice over and in duplicate, to a universe large enough that some stay
// member lists and some become bitsets — every node holds each of its
// features once, and Induce, Subdivide and AttrValue answer as a plain
// model of the attachments does.
func TestAttachInAnyOrder(t *testing.T) {
	var page strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&page, "<p>t%d</p>", i)
	}
	c := corpus.ParseHTML([]string{page.String()})
	rng := rand.New(rand.NewSource(7))
	fs := NewFeatureSpace("any-order", c, nil)
	model := make([]map[string]string, c.NumTexts()) // ordinal -> kind -> value
	type attach struct {
		ord       int
		kind, val string
	}
	var plan []attach
	for ord := range model {
		model[ord] = map[string]string{}
		for _, kind := range []string{"common", "mid", "rare"} {
			if kind == "rare" && rng.Intn(3) > 0 {
				continue
			}
			val := map[string]string{
				"common": strconv.Itoa(ord % 2), "mid": strconv.Itoa(ord % 25), "rare": strconv.Itoa(rng.Intn(150)),
			}[kind]
			model[ord][kind] = val
			plan = append(plan, attach{ord, kind, val})
		}
	}
	plan = append(plan, plan[:40]...) // duplicates
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	for _, a := range plan {
		fs.AddFeature(a.ord, Attr{Kind: a.kind}, a.val)
	}
	for ord, want := range model {
		if got := len(fs.nodeFeats[ord]); got != len(want) {
			t.Fatalf("node %d holds %d features, attached %d", ord, got, len(want))
		}
	}
	for trial := 0; trial < 300; trial++ {
		labels := c.EmptySet()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			labels.Add(rng.Intn(c.NumTexts()))
		}
		ords := labels.Indices()
		shared := map[string]string{}
		for kind, val := range model[ords[0]] {
			all := true
			for _, ord := range ords[1:] {
				all = all && model[ord][kind] == val
			}
			if all {
				shared[kind] = val
			}
		}
		want := c.EmptySet()
		for ord, feats := range model {
			all := true
			for kind, val := range shared {
				all = all && feats[kind] == val
			}
			if all {
				want.Add(ord)
			}
		}
		w, err := fs.Induce(labels)
		if err != nil {
			t.Fatal(err)
		}
		ids := w.(*FeatureWrapper).Features()
		if !slices.IsSorted(ids) || len(ids) != len(shared) || !w.Extract().Equal(want) {
			t.Fatalf("labels %v: features %v, extracts %v; shared %v, want %v", ords, ids, w.Extract().Indices(), shared, want.Indices())
		}
		for _, kind := range []string{"common", "mid", "rare"} {
			v, ok := fs.AttrValue(ords[0], Attr{Kind: kind})
			if mv, mok := model[ords[0]][kind]; ok != mok || v != mv {
				t.Fatalf("node %d: %s is %q (%v), attached %q (%v)", ords[0], kind, v, ok, mv, mok)
			}
			var count int
			for _, g := range fs.Subdivide(labels, Attr{Kind: kind}) {
				count += g.Count()
			}
			wantCount := 0
			for _, ord := range ords {
				if _, ok := model[ord][kind]; ok {
					wantCount++
				}
			}
			if count != wantCount {
				t.Fatalf("labels %v: subdivision by %s covers %d, want %d", ords, kind, count, wantCount)
			}
		}
	}
}
