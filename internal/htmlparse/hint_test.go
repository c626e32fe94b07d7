package htmlparse_test

import (
	"testing"

	"autowrap/internal/dom"
	"autowrap/internal/gen"
	"autowrap/internal/htmlparse"
)

// TestNodeHintFitsChurnPages: on listing pages of every layout, before and
// after a drift, the slab size hints hold the page and overshoot its nodes
// by at most a tenth — the first slab chunk is all a page needs and little
// of it is zeroed for nothing — and its attributes by a tenth and sixteen.
func TestNodeHintFitsChurnPages(t *testing.T) {
	pool := gen.BusinessPool(1, 4000, 0)
	seen := map[string][2]float64{} // layout -> the least and most node hint a node
	for seed := int64(1); seed < 60 && len(seen) < 5; seed++ {
		for _, drift := range []int{0, 2} {
			site, err := gen.DealerSite(gen.DealerConfig{
				Seed: seed, Pool: pool, NumPages: 2, MinRecords: 150, MaxRecords: 200, Drift: drift})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range site.Corpus.Pages {
				nodes, attrs := 0, 0
				htmlparse.Parse(p.HTML).Walk(func(n *dom.Node) bool {
					nodes, attrs = nodes+1, attrs+len(n.Attrs)
					return true
				})
				nodeHint, attrHint := htmlparse.NodeHint(p.HTML)
				if nodeHint < nodes || nodeHint > nodes+nodes/10 {
					t.Errorf("%s (%s, drift %d) page %d: hint %d for %d nodes", site.Name, site.Layout, drift, p.Index, nodeHint, nodes)
				}
				if attrHint < attrs || attrHint > attrs+attrs/10+16 {
					t.Errorf("%s (%s, drift %d) page %d: hint %d for %d attributes", site.Name, site.Layout, drift, p.Index, attrHint, attrs)
				}
				r, ok := seen[site.Layout]
				if q := float64(nodeHint) / float64(nodes); !ok {
					r = [2]float64{q, q}
				} else {
					r = [2]float64{min(r[0], q), max(r[1], q)}
				}
				seen[site.Layout] = r
			}
		}
	}
	for layout, r := range seen {
		t.Logf("%s: %.3f–%.3f hint a node", layout, r[0], r[1])
	}
	if len(seen) < 5 {
		t.Fatalf("only layouts %v were drawn", seen)
	}
}
