package extract_test

import (
	"context"
	"strings"
	"testing"

	"autowrap/internal/extract"
	"autowrap/internal/testutil/race"
	"autowrap/internal/xpinduct"
)

// extractOneAllocBudget is the steady-state allocation ceiling of the
// single-page fast path on allocBudgetPage. The necessary allocations are
// the ones that leave the call — the Texts slice and its strings where
// decoding or collapsing changed bytes; everything else (parser scratch,
// the matcher's frames) is pooled, and no tree is built. Measured 2; it was
// 8 while the path parsed a pooled tree. Raising this number is a
// regression: docs/PERFORMANCE.md explains the budget's composition before
// touching it.
const extractOneAllocBudget = 4

// allocBudgetPage is a fixed single-line page (pre-collapsed text, so text
// data aliases the source instead of being re-allocated): the budget is
// exactly the fast path's own overhead, independent of page formatting.
var allocBudgetPage = "<html><body><table>" +
	strings.Repeat("<tr><td class='k'>label</td><td class='v'>value text</td></tr>", 8) +
	"</table></body></html>"

// TestExtractOneAllocBudget is the CI allocation gate for the serving fast
// path: ExtractOne on raw HTML must stay within its per-call budget after
// the pools are warm. It fails on any steady-state heap growth regression
// in the parse/eval/extract pipeline.
func TestExtractOneAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	p, err := xpinduct.CompileRule(`//td[@class='v']/text()`)
	if err != nil {
		t.Fatal(err)
	}
	rt := extract.New(p, extract.Options{})
	pg := extract.Page{ID: "budget", HTML: allocBudgetPage}

	// Warm the pools and sanity-check the extraction itself.
	res := rt.ExtractOne(pg)
	if res.Err != nil || len(res.Texts) != 8 || res.Texts[0] != "value text" {
		t.Fatalf("fixture extraction = %+v", res)
	}

	avg := testing.AllocsPerRun(200, func() {
		out := rt.ExtractOne(pg)
		if len(out.Texts) != 8 {
			t.Fatalf("extraction changed under measurement: %d texts", len(out.Texts))
		}
	})
	if avg > extractOneAllocBudget {
		t.Fatalf("ExtractOne allocates %.1f times per call, budget is %d", avg, extractOneAllocBudget)
	}
}

// runBatchAllocBudget is the fixed allocation cost of one Run on top of its
// pages: the Batch, its Results and started slices, and the worker pool's
// goroutines, closures and wait group. It does not grow with the batch.
const runBatchAllocBudget = 16

// TestRunAllocBudget is the bulk-request twin of the gate above: Run takes
// ExtractOne's path for each page, so a 16-page batch of large pages costs
// 16 single-page budgets plus the fixed batch term — not the ~4,000
// allocations a page that a fresh tree per page used to cost.
func TestRunAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instruments allocations; budgets describe production builds")
	}
	p, err := xpinduct.CompileRule(`//td[@class='v']/text()`)
	if err != nil {
		t.Fatal(err)
	}
	const records = 160
	large := "<html><body><table>" +
		strings.Repeat("<tr><td class='k'>label</td><td class='v'>value text</td></tr>", records) +
		"</table></body></html>"
	in := make([]extract.Page, 16)
	for i := range in {
		in[i] = extract.Page{ID: "bulk", HTML: large}
	}
	rt := extract.New(p, extract.Options{})
	run := func() {
		batch, err := rt.Run(context.Background(), in)
		if err != nil || batch.Stats.Records != len(in)*records {
			t.Fatalf("bulk extraction = %v, %v", batch.Stats, err)
		}
	}
	run() // warm the workspaces
	budget := float64(len(in)*extractOneAllocBudget + runBatchAllocBudget)
	if avg := testing.AllocsPerRun(50, run); avg > budget {
		t.Fatalf("Run over %d large pages allocates %.1f times, budget is %.0f", len(in), avg, budget)
	}
}
