package corpus_test

import (
	"runtime"
	"testing"

	"autowrap/internal/corpus"
	"autowrap/internal/gen"
	"autowrap/internal/testutil/race"
)

// largePages renders nine dealer pages of 150–200 records: a repair's
// training split of the recorded benchmark's churn sites.
func largePages(tb testing.TB) []string {
	tb.Helper()
	site, err := gen.DealerSite(gen.DealerConfig{Seed: 7, Pool: gen.BusinessPool(1, 4000, 0),
		NumPages: 9, MinRecords: 150, MaxRecords: 200})
	if err != nil {
		tb.Fatal(err)
	}
	pages := make([]string, len(site.Corpus.Pages))
	for i, p := range site.Corpus.Pages {
		pages[i] = p.HTML
	}
	return pages
}

func BenchmarkParseHTML(b *testing.B) {
	pages := largePages(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus.ParseHTML(pages)
	}
}

// parseHTMLAllocBudget and parseHTMLByteBudget are the ceilings of one
// corpus.ParseHTML of largePages. No tree is built: what is allocated is
// what the corpus keeps — each page's serialization (≈ 0.29 MB), the
// shared arrays, sized once from the first page's census (≈ 0.75 MB), and
// a string a text that decodes a character reference — and the
// serialization buffer. The tree the corpus kept until it indexed the
// parser's events made it 354 allocations and 3.1 MB. The budgets are
// 1.25 × the allocations and 1.15 × the bytes measured: 221 and
// 1,072,297.
const (
	parseHTMLAllocBudget = 276
	parseHTMLByteBudget  = 1_233_000
)

func TestParseHTMLAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	pages := largePages(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	corpus.ParseHTML(pages)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		corpus.ParseHTML(pages)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("ParseHTML of %d pages: %d allocations, %d bytes", len(pages), allocs, bytes)
	if allocs > parseHTMLAllocBudget {
		t.Errorf("ParseHTML of %d pages: %d allocations, budget %d", len(pages), allocs, parseHTMLAllocBudget)
	}
	if bytes > parseHTMLByteBudget {
		t.Errorf("ParseHTML of %d pages: %d bytes, budget %d", len(pages), bytes, parseHTMLByteBudget)
	}
}
