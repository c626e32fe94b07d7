package xpinduct

import (
	"testing"

	"autowrap/internal/corpus"
	"autowrap/internal/gen"
	"autowrap/internal/testutil/race"
)

// largeSite is the feature build's working set on the repair path: nine
// training pages of 150–200 records of one dealer site.
func largeSite(tb testing.TB) *corpus.Corpus {
	tb.Helper()
	site, err := gen.DealerSite(gen.DealerConfig{
		Seed: 41, Pool: gen.BusinessPool(1, 4000, 0), NumPages: 9, MinRecords: 150, MaxRecords: 200})
	if err != nil {
		tb.Fatal(err)
	}
	return site.Corpus
}

func BenchmarkNewLarge(b *testing.B) {
	c := largeSite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(c, Options{})
	}
}

// buildAllocBudget is New's allocation ceiling on largeSite (≈ 6,500 text
// nodes, ≈ 2,700 features). What must be allocated is what leaves the call
// and the walk's own tables: the text nodes' feature lists and the
// features' member lists and bitsets, carved from shared arrays (a few
// dozen of each), the feature and attribute tables and their maps as they
// grow, a name an attribute key, and the builder's pair maps and
// per-position rows: ≈ 300, and the budget is 1.25 × that. A bitset of its
// own a feature, as before, breaks it (≈ 3,000 in all), and so does one
// feature list a text node; the text-by-text construction before those
// made 169,000 (a map key per (text, ancestor, feature), an ancestor slice
// per text).
const buildAllocBudget = 380

func TestBuildAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector instruments allocations; budgets describe production builds")
	}
	c := largeSite(t)
	if avg := testing.AllocsPerRun(3, func() { New(c, Options{}) }); avg > buildAllocBudget {
		t.Fatalf("xpinduct.New over %d text nodes: %.0f allocations, budget %d", c.NumTexts(), avg, buildAllocBudget)
	}
}
