package drift_test

import (
	"context"
	"runtime"
	"testing"

	"autowrap/internal/testutil/race"
)

var churnLayouts = []string{"table", "divs", "linklist", "dl", "headings"}

// BenchmarkRepairLarge times one heal of the recorded benchmark's churn
// site, in process: 12 pages of 150–200 records, templates alternating so
// every repair promotes against an incumbent that extracts nothing. Beside
// B/op it reports gc/op, the collections a repair sets off: what its
// allocation volume costs the goroutines serving beside it.
func BenchmarkRepairLarge(b *testing.B) {
	for _, layout := range churnLayouts {
		b.Run(layout, func(b *testing.B) {
			c := newChurnSite(b, layout)
			rep := c.repairer()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := rep.Repair(context.Background(), c.name, c.tmpl[(i+1)%2])
				if err != nil || !report.Promoted {
					b.Fatalf("repair %d: promoted=%v err=%v", i, report != nil && report.Promoted, err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
		})
	}
}

// repairAllocBudget is the allocation ceiling of one repair of the table
// churn site (12 pages of 150–200 records), and repairByteBudget its
// ceiling in bytes. What is left, by the allocation profile, is per
// wrapper, per candidate and per decoded text, not per node, text or
// feature: enumeration's label subsets, extractions and partitions
// (≈ 2,200), ranking's segmentation with its edit-distance and
// common-substring tables (≈ 1,500), the feature build's pairs, feature
// and member lists and bitset words (≈ 240), the corpus's serializations,
// arrays and decoded texts (≈ 230) and validation's results (≈ 80):
// ≈ 4,350 in all. The feature build made ≈ 2,700 more when it took a
// bitset a feature, the training parse ≈ 42,000 before it built into
// slabs, and the annotator ≈ 7,000 lowered copies. The bytes are the
// feature space (≈ 36 %), the corpus (≈ 33 %: its serializations
// ≈ 0.29 MB, its arrays ≈ 0.75 MB) and enumeration and ranking (≈ 30 %):
// ≈ 3.1 MB, where the training pages' trees, which the corpus kept, and
// validation's trees made 5.3 MB, and before them a bitset a feature
// 6.4 MB. The budgets are 1.25 × the allocations and 1.15 × the bytes
// measured. Allocation volume is what the collector bills the serving
// goroutines for while a heal runs beside them.
const (
	repairAllocBudget = 5_440
	repairByteBudget  = 3_540_000
)

func TestRepairAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	c := newChurnSite(t, "table")
	rep := c.repairer()
	k := 0
	repair := func() {
		k++
		if report, err := rep.Repair(context.Background(), c.name, c.tmpl[k%2]); err != nil || !report.Promoted {
			t.Fatalf("repair %d: promoted=%v err=%v", k, report != nil && report.Promoted, err)
		}
	}
	// As testing.AllocsPerRun counts, on one P after a warm-up run, and
	// bytes beside the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	repair()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		repair()
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("one repair: %d allocations, %d bytes", allocs, bytes)
	if allocs > repairAllocBudget {
		t.Errorf("one repair: %d allocations, budget %d", allocs, repairAllocBudget)
	}
	if bytes > repairByteBudget {
		t.Errorf("one repair: %d bytes, budget %d", bytes, repairByteBudget)
	}
}
