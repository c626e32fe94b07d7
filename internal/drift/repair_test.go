package drift_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"autowrap/internal/annotate"
	"autowrap/internal/bitset"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/dataset"
	"autowrap/internal/drift"
	"autowrap/internal/engine"
	"autowrap/internal/extract"
	"autowrap/internal/gen"
	"autowrap/internal/rank"
	"autowrap/internal/stats"
	"autowrap/internal/store"
	"autowrap/internal/testutil/refapply"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// genericScorer mirrors autowrap.GenericModels (internal packages cannot
// import the facade).
func genericScorer() *rank.Scorer {
	schema := stats.MustKDE([]int{2, 3, 3, 4, 4, 5, 5, 6}, stats.KDEOptions{Support: 64})
	align := stats.MustKDE([]int{0, 0, 0, 1, 1, 2, 3, 5}, stats.KDEOptions{Support: 256})
	return &rank.Scorer{
		Ann: rank.NewAnnotationModel(0.95, 0.30),
		Pub: &rank.PublicationModel{Schema: schema, Align: align},
	}
}

// dealersPair builds one dealer site twice: pristine, and with its template
// mutated while the record data stays identical.
func dealersPair(t *testing.T, seed int64, numPages, driftSteps int) (clean, mutated *gen.Site, annot annotate.Annotator) {
	t.Helper()
	opts := dataset.DealersOptions{NumSites: 1, NumPages: numPages, Seed: seed}
	ds, err := dataset.Dealers(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Drift = driftSteps
	dsm, err := dataset.Dealers(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Sites[0], dsm.Sites[0], ds.Annotator
}

// learnSpec is the shared re-learning recipe: dictionary annotator, xpath
// inductor, generic models — the same pipeline the site was first learned
// with.
func learnSpec(annot annotate.Annotator) drift.LearnSpec {
	return func(site string, c *corpus.Corpus) (engine.SiteSpec, error) {
		return engine.SiteSpec{
			Annotator: annot,
			NewInductor: func(c *corpus.Corpus) (wrapper.Inductor, error) {
				return xpinduct.New(c, xpinduct.Options{}), nil
			},
			Config: core.Config{Scorer: genericScorer()},
		}, nil
	}
}

// learnInto learns the site from scratch and stores + promotes the winner,
// returning the active entry.
func learnInto(t testing.TB, s *store.Store, site *gen.Site, annot annotate.Annotator) store.Entry {
	t.Helper()
	spec, _ := learnSpec(annot)(site.Name, site.Corpus)
	spec.Name, spec.Corpus = site.Name, site.Corpus
	batch, err := engine.LearnBatch(context.Background(), []engine.SiteSpec{spec}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Active(site.Name)
	if !ok {
		t.Fatalf("site %s has no active version after learn", site.Name)
	}
	return e
}

// htmlsOf returns the site's raw pages.
func htmlsOf(site *gen.Site) []string {
	out := make([]string, len(site.Corpus.Pages))
	for i, p := range site.Corpus.Pages {
		out[i] = p.HTML
	}
	return out
}

// extractAll applies a compiled wrapper to every page of a site, returning
// the trimmed record texts in document order.
func extractAll(p wrapper.Portable, site *gen.Site) []string {
	var out []string
	for _, page := range site.Corpus.Pages {
		out = append(out, refapply.Texts(p, page.HTML)...)
	}
	return out
}

// goldNames returns the site's gold "name" values in ordinal (document)
// order.
func goldNames(site *gen.Site) []string {
	var out []string
	site.Gold["name"].ForEach(func(ord int) {
		out = append(out, strings.TrimSpace(site.Corpus.TextContent(ord)))
	})
	return out
}

// TestLifecycleEndToEnd is the acceptance path: learn on clean pages,
// mutate the template, serve until the monitor trips, auto-relearn, and
// assert the promoted version extracts correctly while the old version
// remains retrievable for rollback.
func TestLifecycleEndToEnd(t *testing.T) {
	clean, mutated, annot := dealersPair(t, 1001, 16, 2)

	// Learn + store + promote v1 from the pristine site.
	s := store.New()
	v1 := learnInto(t, s, clean, annot)
	if v1.Version != 1 || v1.Profile == nil {
		t.Fatalf("v1 = %+v", v1)
	}
	served, err := v1.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := extractAll(served, clean), goldNames(clean); !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 on clean pages: got %d records, want %d gold", len(got), len(want))
	}

	// Serve the mutated site through a monitored runtime until it trips.
	monitor := drift.NewMonitor(drift.Policy{Window: 8, MinPages: 4})
	health := monitor.Register(clean.Name, v1.Profile)
	rt := extract.New(served, extract.Options{Workers: 4, OnResult: health.Observe})
	var pages []extract.Page
	for i, html := range htmlsOf(mutated) {
		pages = append(pages, extract.Page{ID: string(rune('a' + i)), HTML: html})
	}
	if _, err := rt.Run(context.Background(), pages); err != nil {
		t.Fatal(err)
	}
	if !health.Tripped() {
		t.Fatalf("serving the mutated template did not trip: %s (runtime %+v)",
			health.Stats(), rt.Health())
	}

	// Auto-relearn on the fresh (mutated) pages.
	rep := &drift.Repairer{
		Store:   s,
		Spec:    learnSpec(annot),
		Monitor: monitor,
	}
	report, err := rep.Repair(context.Background(), clean.Name, htmlsOf(mutated))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Promoted || !report.HadIncumbent {
		t.Fatalf("repair did not promote: %s", report)
	}
	if report.Candidate.Version != 2 || report.Candidate.Profile == nil {
		t.Fatalf("candidate = %+v", report.Candidate)
	}
	if !beats(report.CandidateEval, report.IncumbentEval) {
		t.Fatalf("promoted without beating the incumbent: %s", report)
	}

	// The promoted version extracts the mutated site correctly.
	active, ok := s.Active(clean.Name)
	if !ok || active.Version != 2 {
		t.Fatalf("active after repair = %+v, %v", active, ok)
	}
	repaired, err := active.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := extractAll(repaired, mutated), goldNames(mutated); !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired wrapper on mutated pages: got %v..., want %v... (%d vs %d records)",
			head(got), head(want), len(got), len(want))
	}

	// The monitor was re-armed against the new profile.
	if health.Tripped() {
		t.Fatalf("repair left the site tripped: %s", health.Stats())
	}

	// The old version remains retrievable, and rollback reinstates it.
	old, ok := s.Version(clean.Name, 1)
	if !ok || old.Rule != v1.Rule {
		t.Fatalf("v1 lost after repair: %+v, %v", old, ok)
	}
	back, err := s.Rollback(clean.Name)
	if err != nil || back.Version != 1 {
		t.Fatalf("rollback = %+v, %v", back, err)
	}
	if a, _ := s.Active(clean.Name); a.Version != 1 {
		t.Fatalf("active after rollback = v%d", a.Version)
	}
}

// beats re-states the promotion predicate for assertions.
func beats(e, inc drift.Eval) bool {
	if e.NonEmpty != inc.NonEmpty {
		return e.NonEmpty > inc.NonEmpty
	}
	return e.Records > inc.Records
}

func head(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// TestRepairRejectsWhenIncumbentStillWins pins the validation gate: when
// the site did NOT actually drift, the candidate cannot beat the incumbent
// and serving must not flip.
func TestRepairRejectsWhenIncumbentStillWins(t *testing.T) {
	clean, _, annot := dealersPair(t, 1001, 16, 0)
	s := store.New()
	v1 := learnInto(t, s, clean, annot)
	rep := &drift.Repairer{Store: s, Spec: learnSpec(annot)}
	report, err := rep.Repair(context.Background(), clean.Name, htmlsOf(clean))
	if err != nil {
		t.Fatal(err)
	}
	if report.Promoted {
		t.Fatalf("no-drift repair flipped serving: %s", report)
	}
	if report.Candidate.Version != 2 {
		t.Fatalf("rejected candidate not staged: %+v", report.Candidate)
	}
	if a, _ := s.Active(clean.Name); a.Version != v1.Version {
		t.Fatalf("active moved to v%d without a win", a.Version)
	}
}

// TestRepairedEquivalentToFreshLearn is the property test: for several
// (seed, drift) combinations, the wrapper produced by the trip-then-repair
// path extracts exactly the same records from the mutated corpus as a
// from-scratch learn over that corpus — drift repair is relearn, not a
// patch.
func TestRepairedEquivalentToFreshLearn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed learning loop")
	}
	for _, tc := range []struct {
		seed  int64
		drift int
	}{
		{1001, 1},
		{1001, 2},
		{4242, 2},
		{9090, 3},
	} {
		clean, mutated, annot := dealersPair(t, tc.seed, 16, tc.drift)
		s := store.New()
		learnInto(t, s, clean, annot)

		rep := &drift.Repairer{Store: s, Spec: learnSpec(annot)}
		report, err := rep.Repair(context.Background(), clean.Name, htmlsOf(mutated))
		if err != nil {
			t.Fatalf("seed %d drift %d: %v", tc.seed, tc.drift, err)
		}
		repaired, err := report.Candidate.Compile()
		if err != nil {
			t.Fatal(err)
		}

		// Fresh learn over the full mutated corpus, no history involved.
		fresh := store.New()
		freshEntry := learnInto(t, fresh, mutated, annot)
		freshP, err := freshEntry.Compile()
		if err != nil {
			t.Fatal(err)
		}

		got := extractAll(repaired, mutated)
		want := extractAll(freshP, mutated)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d drift %d: repaired extracts %d records, fresh learn %d\n repaired: %v...\n fresh:    %v...",
				tc.seed, tc.drift, len(got), len(want), head(got), head(want))
		}
		if len(got) == 0 {
			t.Fatalf("seed %d drift %d: degenerate property (no records)", tc.seed, tc.drift)
		}
	}
}

// stoppingAnnotator ends the repair's context in the middle of the learn.
type stoppingAnnotator struct {
	annotate.Annotator
	stop func()
}

func (a stoppingAnnotator) Annotate(c *corpus.Corpus) *bitset.Set {
	a.stop()
	return a.Annotator.Annotate(c)
}

// TestRepairStopsWithNothingStaged: a repair whose context is cancelled, or
// whose deadline passes, while it learns returns the context's error and
// leaves the store as it found it — no candidate staged, nothing promoted —
// even though the learn it had started would have won.
func TestRepairStopsWithNothingStaged(t *testing.T) {
	clean, mutated, annot := dealersPair(t, 1001, 16, 2)
	s := store.New()
	v1 := learnInto(t, s, clean, annot)

	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc, func())
		want error
	}{
		{"cancelled", func() (context.Context, context.CancelFunc, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			return ctx, cancel, cancel
		}, context.Canceled},
		{"past deadline", func() (context.Context, context.CancelFunc, func()) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			return ctx, cancel, func() { <-ctx.Done() }
		}, context.DeadlineExceeded},
		{"dead on arrival", func() (context.Context, context.CancelFunc, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel, func() { t.Error("annotator reached under a context that was already done") }
		}, context.Canceled},
	} {
		ctx, cancel, stop := tc.ctx()
		rep := &drift.Repairer{Store: s, Spec: learnSpec(stoppingAnnotator{annot, stop})}
		report, err := rep.Repair(ctx, clean.Name, htmlsOf(mutated))
		cancel()
		if report != nil || !errors.Is(err, tc.want) {
			t.Fatalf("%s: report %v, err %v; want %v", tc.name, report, err, tc.want)
		}
		if active, _ := s.Active(clean.Name); active.Version != v1.Version || len(s.History(clean.Name)) != 1 {
			t.Fatalf("%s: store moved: active v%d, %d versions", tc.name, active.Version, len(s.History(clean.Name)))
		}
	}

	// The same repair, left alone, stages v2 and promotes it.
	rep := &drift.Repairer{Store: s, Spec: learnSpec(annot)}
	report, err := rep.Repair(context.Background(), clean.Name, htmlsOf(mutated))
	if err != nil || !report.Promoted || report.Candidate.Version != 2 {
		t.Fatalf("uninterrupted repair: %v, %+v", err, report)
	}
	st := report.Stages
	if st.Parse <= 0 || st.Annotate <= 0 || st.Build <= 0 || st.Enumerate <= 0 || st.Rank <= 0 || st.Validate <= 0 || st.Promote <= 0 {
		t.Fatalf("stage times not recorded: %+v", st)
	}
	if sum := st.Annotate + st.Build + st.Enumerate + st.Rank; sum > report.LearnElapsed {
		t.Fatalf("learn stages sum to %v, more than the learn's %v", sum, report.LearnElapsed)
	}
}
