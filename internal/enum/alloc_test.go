package enum

import (
	"testing"

	"autowrap/internal/gen"
	"autowrap/internal/testutil/race"
	"autowrap/internal/xpinduct"
)

// topDownAllocBudget is TopDown's allocation ceiling on a repair-sized
// learn: nine pages of 150–200 records, 30 % of the names labelled (474
// labels, 191 wrappers, 2,240 allocations measured). What must be allocated
// is per Induce call — the label subset handed to the inductor, the wrapper,
// its extraction and feature list: ≈ 11 a wrapper — plus the worklist slab
// and one partition a pass. The universe-sized worklist this replaced
// allocated a set a piece.
const topDownAllocBudget = 2_600

func TestTopDownAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector instruments allocations; budgets describe production builds")
	}
	site, err := gen.DealerSite(gen.DealerConfig{
		Seed: 41, Pool: gen.BusinessPool(1, 4000, 0), NumPages: 9, MinRecords: 150, MaxRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	labels := site.Corpus.EmptySet()
	i := 0
	site.Gold["name"].ForEach(func(ord int) {
		if i%10 < 3 {
			labels.Add(ord)
		}
		i++
	})
	ind := xpinduct.New(site.Corpus, xpinduct.Options{})
	var res *Result
	avg := testing.AllocsPerRun(3, func() {
		if res, err = TopDown(ind, labels, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("TopDown over %d labels, %d wrappers: %.0f allocations", labels.Count(), len(res.Items), avg)
	if avg > topDownAllocBudget {
		t.Fatalf("TopDown over %d labels, %d wrappers: %.0f allocations, budget %d",
			labels.Count(), len(res.Items), avg, topDownAllocBudget)
	}
}
