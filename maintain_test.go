// Acceptance tests for the wrapper-maintenance loop through the public
// facade: learn on clean generated pages, mutate the template, serve until
// the monitor trips, auto-relearn, and verify validated promotion with the
// old version one rollback away.
package autowrap_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"autowrap"
	"autowrap/internal/dataset"
	"autowrap/internal/gen"
	"autowrap/internal/testutil/refapply"
)

// maintPair builds one dealer site pristine and template-mutated (same
// record data).
func maintPair(t *testing.T) (clean, mutated *gen.Site, annot autowrap.Annotator) {
	t.Helper()
	opts := dataset.DealersOptions{NumSites: 1, NumPages: 16, Seed: 1001}
	ds, err := dataset.Dealers(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Drift = 2
	dsm, err := dataset.Dealers(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Sites[0], dsm.Sites[0], ds.Annotator
}

func TestMaintenanceLifecycleFacade(t *testing.T) {
	clean, mutated, annot := maintPair(t)
	ctx := context.Background()

	newInductor := func(c *autowrap.Corpus) (autowrap.Inductor, error) {
		return autowrap.NewXPathInductor(c), nil
	}
	config := autowrap.NewLearnConfig(autowrap.GenericModels(clean.Corpus), autowrap.Options{})

	// Learn + store + promote v1; StoreBatch records the learn-time
	// profile automatically.
	batch, err := autowrap.LearnBatch(ctx, []autowrap.BatchSite{{
		Name:        clean.Name,
		Corpus:      clean.Corpus,
		Annotator:   annot,
		NewInductor: newInductor,
		Config:      config,
	}}, autowrap.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := autowrap.NewWrapperStore()
	if n, err := autowrap.StoreBatch(st, batch); n != 1 || err != nil {
		t.Fatalf("StoreBatch: n=%d err=%v", n, err)
	}
	v1, ok := st.Active(clean.Name)
	if !ok || v1.Profile == nil {
		t.Fatalf("active v1 = %+v, %v", v1, ok)
	}

	// Monitored serving of the mutated site trips.
	served, err := v1.Compile()
	if err != nil {
		t.Fatal(err)
	}
	monitor := autowrap.NewMonitor(autowrap.HealthPolicy{Window: 8, MinPages: 4})
	health := monitor.Register(clean.Name, v1.Profile)
	rt := autowrap.NewExtractor(served, autowrap.ExtractOptions{Workers: 4, OnResult: health.Observe})
	var pages []autowrap.ExtractPage
	var htmls []string
	for _, p := range mutated.Corpus.Pages {
		pages = append(pages, autowrap.ExtractPage{ID: clean.Name, HTML: p.HTML})
		htmls = append(htmls, p.HTML)
	}
	if _, err := rt.Run(ctx, pages); err != nil {
		t.Fatal(err)
	}
	if !health.Tripped() {
		t.Fatalf("mutated template did not trip: %s (runtime %+v)", health.Stats(), rt.Health())
	}
	if got := monitor.Tripped(); len(got) != 1 || got[0] != clean.Name {
		t.Fatalf("tripped sites = %v", got)
	}

	// Auto-relearn, validated promotion.
	rep := &autowrap.Repairer{
		Store: st,
		Spec: func(site string, c *autowrap.Corpus) (autowrap.BatchSite, error) {
			return autowrap.BatchSite{Annotator: annot, NewInductor: newInductor, Config: config}, nil
		},
		Monitor: monitor,
	}
	report, err := rep.Repair(ctx, clean.Name, htmls)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Promoted {
		t.Fatalf("repair rejected: %s", report)
	}
	active, _ := st.Active(clean.Name)
	if active.Version != 2 {
		t.Fatalf("active = v%d", active.Version)
	}

	// The promoted wrapper extracts the mutated site's gold names.
	repaired, err := active.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range mutated.Corpus.Pages {
		got = append(got, refapply.Texts(repaired, p.HTML)...)
	}
	var want []string
	mutated.Gold["name"].ForEach(func(ord int) {
		want = append(want, strings.TrimSpace(mutated.Corpus.TextContent(ord)))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired extraction: %d records, want %d gold", len(got), len(want))
	}

	// Rollback keeps working through the facade.
	if back, err := st.Rollback(clean.Name); err != nil || back.Version != 1 {
		t.Fatalf("rollback = %+v, %v", back, err)
	}
}
