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
// profile, is per feature, per candidate and per decoded text, not per
// node: the feature build's bitsets and interned attribute names (≈ 2,100),
// ranking's edit-distance and common-substring tables (≈ 1,300),
// induction's and enumeration's sets (≈ 1,500), segment sampling (≈ 250),
// the decoded texts of the parse (≈ 200), and a few dozen a page for the
// parse's slabs and the corpus index: ≈ 7,800 in all. The training parse
// made ≈ 42,000 of its own before it built into slabs — a node and its
// child slice each — and the annotator ≈ 7,000 lowered copies; the budget
// is 1.25 × what is measured. Allocation volume is what the collector
// bills the serving goroutines for while a heal runs beside them.
const repairAllocBudget = 9_700

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
