package drift_test

import (
	"context"
	"testing"

	"autowrap/internal/testutil/race"
)

var churnLayouts = []string{"table", "divs", "linklist", "dl", "headings"}

// BenchmarkRepairLarge times one heal of the recorded benchmark's churn
// site, in process: 12 pages of 150–200 records, templates alternating so
// every repair promotes against an incumbent that extracts nothing.
func BenchmarkRepairLarge(b *testing.B) {
	for _, layout := range churnLayouts {
		b.Run(layout, func(b *testing.B) {
			c := newChurnSite(b, layout)
			rep := c.repairer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := rep.Repair(context.Background(), c.name, c.tmpl[(i+1)%2])
				if err != nil || !report.Promoted {
					b.Fatalf("repair %d: promoted=%v err=%v", i, report != nil && report.Promoted, err)
				}
			}
		})
	}
}

// repairAllocBudget is the allocation ceiling of one repair of the table
// churn site (12 pages of 150–200 records). What is left, by the allocation
// profile: the unpooled parse of the nine training pages (≈ 42,000: a node
// and its child slice each), the feature lists and bitsets of the build
// (≈ 11,000), the annotator's lower-cased copies (≈ 7,000), enumeration and
// ranking (≈ 5,000) and the held-out parse when the workspace pool is cold
// (≈ 4,600): ≈ 65,000 in all, against ≈ 361,000 before the learner's hot
// paths were rebuilt — the budget is 22 % of that. Allocation volume is what
// the collector bills the serving goroutines for while a heal runs beside
// them.
const repairAllocBudget = 80_000

func TestRepairAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	c := newChurnSite(t, "table")
	rep := c.repairer()
	k := 0
	avg := testing.AllocsPerRun(4, func() {
		k++
		if report, err := rep.Repair(context.Background(), c.name, c.tmpl[k%2]); err != nil || !report.Promoted {
			t.Fatalf("repair %d: promoted=%v err=%v", k, report != nil && report.Promoted, err)
		}
	})
	if avg > repairAllocBudget {
		t.Fatalf("one repair: %.0f allocations, budget %d", avg, repairAllocBudget)
	}
}
