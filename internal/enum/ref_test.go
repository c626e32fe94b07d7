package enum

import (
	"fmt"
	"math/rand"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/gen"
	"autowrap/internal/lr"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// refTopDown is Algorithm 2 as it was written before TopDown moved into the
// labels' index space: the worklist holds universe-sized sets and the
// inductor subdivides every worklist set by every attribute.
func refTopDown(ind wrapper.FeatureInductor, labels *bitset.Set) (*Result, error) {
	if labels.Empty() {
		return &Result{}, nil
	}
	seen := make(map[uint64][]*bitset.Set)
	var zs []*bitset.Set
	add := func(s *bitset.Set) {
		if s.Empty() {
			return
		}
		for _, t := range seen[s.Signature()] {
			if t.Equal(s) {
				return
			}
		}
		seen[s.Signature()] = append(seen[s.Signature()], s)
		zs = append(zs, s)
	}
	add(labels.Clone())
	for _, a := range ind.Attrs(labels) {
		snapshot := zs
		for _, s := range snapshot {
			for _, sub := range ind.Subdivide(s, a) {
				add(sub)
			}
		}
	}
	d := newDedup()
	var calls int64
	for _, s := range zs {
		w, err := ind.Induce(s)
		if err != nil {
			return nil, err
		}
		calls++
		d.add(w, s)
	}
	return &Result{Items: d.items, Calls: calls}, nil
}

// sameEnumeration holds got to want item by item: the same closed label
// subsets producing the same extractions and rules, in the same order, for
// the same number of inductor calls.
func sameEnumeration(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Calls != want.Calls || len(got.Items) != len(want.Items) {
		t.Fatalf("%s: %d calls, %d items; reference %d calls, %d items",
			name, got.Calls, len(got.Items), want.Calls, len(want.Items))
	}
	for i := range want.Items {
		g, w := got.Items[i], want.Items[i]
		if !g.Labels.Equal(w.Labels) {
			t.Fatalf("%s: item %d trained on %v, reference %v", name, i, g.Labels.Indices(), w.Labels.Indices())
		}
		if !g.Wrapper.Extract().Equal(w.Wrapper.Extract()) {
			t.Fatalf("%s: item %d extracts %d nodes, reference %d",
				name, i, g.Wrapper.Extract().Count(), w.Wrapper.Extract().Count())
		}
		if g.Wrapper.Rule() != w.Wrapper.Rule() {
			t.Fatalf("%s: item %d rule %q, reference %q", name, i, g.Wrapper.Rule(), w.Wrapper.Rule())
		}
	}
}

// TestTopDownMatchesReference: XPATH and LR over dealer sites of every
// drift step, with label sets from one label to several words' worth — some
// drawn uniformly, some the noisy-annotator shape (a share of the gold
// names plus stray nodes). TopDown must also still agree with BottomUp on
// the wrapper space.
func TestTopDownMatchesReference(t *testing.T) {
	pool := gen.BusinessPool(11, 600, 0)
	rng := rand.New(rand.NewSource(12))
	for seed := int64(500); seed < 506; seed++ {
		for drift := 0; drift <= 3; drift++ {
			site, err := gen.DealerSite(gen.DealerConfig{
				Seed: seed, Pool: pool, NumPages: 6, MinRecords: 10, MaxRecords: 30, Drift: drift})
			if err != nil {
				t.Fatal(err)
			}
			c := site.Corpus
			var labelSets []*bitset.Set
			for _, n := range []int{1, 2, 7, 70, 150} {
				s := c.EmptySet()
				for s.Count() < n && s.Count() < c.NumTexts() {
					s.Add(rng.Intn(c.NumTexts()))
				}
				labelSets = append(labelSets, s)
			}
			noisy := c.EmptySet()
			site.Gold["name"].ForEach(func(ord int) {
				if rng.Float64() < 0.3 {
					noisy.Add(ord)
				}
			})
			for i := 0; i < 5; i++ {
				noisy.Add(rng.Intn(c.NumTexts()))
			}
			labelSets = append(labelSets, noisy, c.EmptySet())

			inductors := []wrapper.FeatureInductor{xpinduct.New(c, xpinduct.Options{}), lr.New(c, 0)}
			for _, ind := range inductors {
				for i, labels := range labelSets {
					name := fmt.Sprintf("%s drift %d %s labels #%d (%d)", site.Name, drift, ind.Name(), i, labels.Count())
					got, err := TopDown(ind, labels, Options{})
					if err != nil {
						t.Fatal(err)
					}
					want, err := refTopDown(ind, labels)
					if err != nil {
						t.Fatal(err)
					}
					sameEnumeration(t, name, got, want)
					if labels.Count() > 10 {
						continue // BottomUp makes k·|L| calls
					}
					bu, err := BottomUp(ind, labels, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !sigsEqual(got.Signatures(), bu.Signatures()) {
						t.Fatalf("%s: TopDown and BottomUp disagree on the wrapper space", name)
					}
				}
			}
		}
	}
}
