package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"autowrap/internal/annotate"
	"autowrap/internal/bitset"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/rank"
	"autowrap/internal/stats"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// testSite builds a small dealer-style site whose store names are offset by
// base, so every site in a batch has distinct content.
func testSite(base int) *corpus.Corpus {
	var pages []string
	k := base
	for p := 0; p < 3; p++ {
		var sb strings.Builder
		sb.WriteString(`<html><body><h1>Locator</h1><table>`)
		for i := 0; i < 3; i++ {
			k++
			fmt.Fprintf(&sb, `<tr><td><u>STORE %04d</u><br>%d Main St</td></tr>`, k, k*7)
		}
		sb.WriteString(`</table></body></html>`)
		pages = append(pages, sb.String())
	}
	return corpus.ParseHTML(pages)
}

func testScorer() *rank.Scorer {
	schema := stats.MustKDE([]int{2, 3, 3, 4}, stats.KDEOptions{Support: 64})
	align := stats.MustKDE([]int{0, 0, 1, 2}, stats.KDEOptions{Support: 256})
	return &rank.Scorer{
		Ann: rank.NewAnnotationModel(0.95, 0.30),
		Pub: &rank.PublicationModel{Schema: schema, Align: align},
	}
}

func xpathFactory(c *corpus.Corpus) (wrapper.Inductor, error) {
	return xpinduct.New(c, xpinduct.Options{}), nil
}

// testSpecs builds n healthy site specs.
func testSpecs(n int) []SiteSpec {
	scorer := testScorer()
	specs := make([]SiteSpec, n)
	for i := range specs {
		base := i * 100
		specs[i] = SiteSpec{
			Name:   fmt.Sprintf("site-%02d", i),
			Corpus: testSite(base),
			Annotator: annotate.NewDictionary("d", []string{
				fmt.Sprintf("STORE %04d", base+2),
				fmt.Sprintf("STORE %04d", base+7),
			}),
			NewInductor: xpathFactory,
			Config:      core.Config{Scorer: scorer},
		}
	}
	return specs
}

func TestLearnBatchLearnsEverySite(t *testing.T) {
	specs := testSpecs(6)
	batch, err := LearnBatch(context.Background(), specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := batch.Stats
	if st.Sites != 6 || st.Learned != 6 || st.Failed != 0 || st.Skipped != 0 || st.Unstarted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.EnumCalls == 0 {
		t.Fatal("no enumeration calls counted")
	}
	if st.Wall <= 0 || st.Work <= 0 || st.MaxSite <= 0 {
		t.Fatalf("timing stats not populated: %+v", st)
	}
	for i, r := range batch.Sites {
		if r.Index != i || r.Name != specs[i].Name {
			t.Fatalf("result %d misaligned: %+v", i, r)
		}
		if r.Err != nil || r.Result == nil || r.Result.Best == nil {
			t.Fatalf("site %s: err=%v result=%v", r.Name, r.Err, r.Result)
		}
		// Each site's learned wrapper extracts exactly its 9 store names.
		if got := r.Result.Best.Wrapper.Extract().Count(); got != 9 {
			t.Fatalf("site %s extracted %d nodes, want 9", r.Name, got)
		}
	}
}

// TestLearnBatchDeterministicAcrossWorkers is the engine-level determinism
// guarantee: the same specs yield byte-identical per-site wrappers no
// matter the worker count.
func TestLearnBatchDeterministicAcrossWorkers(t *testing.T) {
	serial, err := LearnBatch(context.Background(), testSpecs(5), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := LearnBatch(context.Background(), testSpecs(5), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Sites {
			a, b := serial.Sites[i], par.Sites[i]
			if a.Result.Best.Wrapper.Rule() != b.Result.Best.Wrapper.Rule() {
				t.Fatalf("workers=%d site %d: rule %q != serial %q",
					workers, i, b.Result.Best.Wrapper.Rule(), a.Result.Best.Wrapper.Rule())
			}
			if !a.Result.Best.Wrapper.Extract().Equal(b.Result.Best.Wrapper.Extract()) {
				t.Fatalf("workers=%d site %d: extraction differs from serial", workers, i)
			}
			if len(a.Result.Candidates) != len(b.Result.Candidates) {
				t.Fatalf("workers=%d site %d: candidate count differs", workers, i)
			}
		}
	}
}

// TestLearnBatchIsolation checks that broken sites of every flavor — bad
// spec, failing factory, panicking factory, panicking inductor — fail in
// their own slot while the rest of the batch learns normally.
func TestLearnBatchIsolation(t *testing.T) {
	specs := testSpecs(6)
	specs[1].Corpus = nil // validation failure
	specs[2].NewInductor = func(c *corpus.Corpus) (wrapper.Inductor, error) {
		return nil, errors.New("boom: factory failed")
	}
	specs[3].NewInductor = func(c *corpus.Corpus) (wrapper.Inductor, error) {
		panic("factory panic")
	}
	specs[4].NewInductor = func(c *corpus.Corpus) (wrapper.Inductor, error) {
		return panicInductor{c: c}, nil
	}

	batch, err := LearnBatch(context.Background(), specs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := batch.Stats
	if st.Learned != 2 || st.Failed != 4 {
		t.Fatalf("stats = %+v, want 2 learned / 4 failed", st)
	}
	for _, i := range []int{0, 5} {
		if batch.Sites[i].Err != nil || batch.Sites[i].Result == nil {
			t.Fatalf("healthy site %d was disturbed: %+v", i, batch.Sites[i])
		}
	}
	for _, i := range []int{1, 2, 3, 4} {
		if batch.Sites[i].Err == nil {
			t.Fatalf("broken site %d has no error", i)
		}
	}
	if !strings.Contains(batch.Sites[3].Err.Error(), "panicked") {
		t.Fatalf("site 3 error should mention the panic: %v", batch.Sites[3].Err)
	}
	if got := len(batch.Failed()); got != 4 {
		t.Fatalf("Failed() = %d results, want 4", got)
	}
}

type panicInductor struct{ c *corpus.Corpus }

func (p panicInductor) Name() string           { return "panic" }
func (p panicInductor) Corpus() *corpus.Corpus { return p.c }
func (p panicInductor) Induce(labels *bitset.Set) (wrapper.Wrapper, error) {
	panic("induce panic")
}

func TestLearnBatchSkipsUnannotatedSites(t *testing.T) {
	specs := testSpecs(3)
	specs[1].Annotator = annotate.NewDictionary("empty", nil)
	batch, err := LearnBatch(context.Background(), specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Stats.Skipped != 1 || batch.Stats.Learned != 2 {
		t.Fatalf("stats = %+v", batch.Stats)
	}
	if !batch.Sites[1].Skipped || batch.Sites[1].Err != nil {
		t.Fatalf("site 1 = %+v, want skipped", batch.Sites[1])
	}
}

func TestLearnBatchMinLabels(t *testing.T) {
	specs := testSpecs(1)
	nLabels := specs[0].Annotator.Annotate(specs[0].Corpus).Count()
	ok, err := LearnBatch(context.Background(), specs, Options{MinLabels: nLabels})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Stats.Learned != 1 || ok.Stats.Skipped != 0 {
		t.Fatalf("MinLabels=%d: stats = %+v, want learned", nLabels, ok.Stats)
	}
	strict, err := LearnBatch(context.Background(), specs, Options{MinLabels: nLabels + 1})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Stats.Skipped != 1 {
		t.Fatalf("MinLabels=%d: stats = %+v, want 1 skipped", nLabels+1, strict.Stats)
	}
}

func TestLearnBatchPrecomputedLabels(t *testing.T) {
	specs := testSpecs(1)
	labels := specs[0].Annotator.Annotate(specs[0].Corpus)
	specs[0].Annotator = nil
	specs[0].Labels = labels
	batch, err := LearnBatch(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Stats.Learned != 1 {
		t.Fatalf("stats = %+v", batch.Stats)
	}
	if batch.Sites[0].Labels != labels {
		t.Fatal("precomputed labels were not used")
	}
}

// TestLearnBatchCancellation cancels mid-batch from a progress callback:
// the batch must stop claiming sites, mark unstarted ones with the ctx
// error, and surface the cancellation as the batch error.
func TestLearnBatchCancellation(t *testing.T) {
	const n = 24
	specs := testSpecs(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(Options{
		Workers: 2,
		Progress: func(done, total int, r SiteResult) {
			if done == 2 {
				cancel()
			}
		},
	})
	batch, err := eng.LearnBatch(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := batch.Stats
	if st.Unstarted == 0 {
		t.Fatal("cancellation left no site unstarted")
	}
	if st.Learned+st.Failed+st.Skipped+st.Unstarted != n {
		t.Fatalf("stats do not add up: %+v", st)
	}
	for _, r := range batch.Sites {
		if r.Result == nil && r.Err == nil && !r.Skipped {
			t.Fatalf("site %d has neither result nor error: %+v", r.Index, r)
		}
		if r.Err != nil && r.Result == nil && r.Elapsed == 0 {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("unstarted site %d error = %v, want context.Canceled", r.Index, r.Err)
			}
		}
	}
}

func TestLearnBatchProgressOrdering(t *testing.T) {
	specs := testSpecs(8)
	var calls atomic.Int32
	last := 0
	eng := New(Options{
		Workers: 4,
		Progress: func(done, total int, r SiteResult) {
			calls.Add(1)
			if done != last+1 || total != 8 {
				t.Errorf("progress (%d,%d) after %d", done, total, last)
			}
			last = done
		},
	})
	if _, err := eng.LearnBatch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Fatalf("progress called %d times, want 8", calls.Load())
	}
}

func TestLearnBatchEmpty(t *testing.T) {
	batch, err := LearnBatch(context.Background(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Sites) != 0 || batch.Stats.Sites != 0 {
		t.Fatalf("batch = %+v", batch)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	st := Stats{Sites: 10, Wall: 2e9, Work: 8e9}
	if got := st.Speedup(); got < 3.99 || got > 4.01 {
		t.Fatalf("Speedup() = %v, want 4", got)
	}
	if got := st.SitesPerSec(); got < 4.99 || got > 5.01 {
		t.Fatalf("SitesPerSec() = %v, want 5", got)
	}
	if s := st.String(); !strings.Contains(s, "speedup=4.00x") {
		t.Fatalf("String() = %q", s)
	}
	var zero Stats
	if zero.Speedup() != 0 || zero.SitesPerSec() != 0 {
		t.Fatal("zero stats should yield zero rates")
	}
}

func TestLearnBatchIsolatesNestedScoringPanic(t *testing.T) {
	// A panic during parallel candidate scoring happens on a goroutine of
	// the site's nested scoring pool, not the engine worker that holds the
	// recover — par must rethrow it on the caller for the site's isolation
	// to hold. A Scorer with a nil publication model panics inside Score.
	specs := testSpecs(4)
	specs[2].Config = core.Config{
		Scorer:       &rank.Scorer{Ann: rank.NewAnnotationModel(0.95, 0.30)},
		ScoreWorkers: 4,
	}
	batch, err := LearnBatch(context.Background(), specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Sites[2].Err == nil || !strings.Contains(batch.Sites[2].Err.Error(), "panicked") {
		t.Fatalf("site 2 should fail with a recovered panic, got: %v", batch.Sites[2].Err)
	}
	for _, i := range []int{0, 1, 3} {
		if batch.Sites[i].Err != nil {
			t.Fatalf("healthy site %d was disturbed: %v", i, batch.Sites[i].Err)
		}
	}
	if batch.Stats.Learned != 3 || batch.Stats.Failed != 1 {
		t.Fatalf("stats = %+v", batch.Stats)
	}
}

// hookAnnotator runs hook before annotating; hookInductor runs it on the
// first Induce, i.e. in the middle of enumeration.
type hookAnnotator struct {
	annotate.Annotator
	hook func()
}

func (a hookAnnotator) Annotate(c *corpus.Corpus) *bitset.Set {
	a.hook()
	return a.Annotator.Annotate(c)
}

type hookInductor struct {
	wrapper.FeatureInductor
	hook func()
}

func (h hookInductor) Induce(labels *bitset.Set) (wrapper.Wrapper, error) {
	h.hook()
	return h.FeatureInductor.Induce(labels)
}

// TestLearnBatchStopsRunningSiteBetweenStages: a one-site batch whose
// context is cancelled while a stage runs must not carry on to a result —
// par.ForContext alone reports success once every index has run. The site
// fails at the boundary after the stage, wrapping the context's error, and
// the batch reports the cancellation.
func TestLearnBatchStopsRunningSiteBetweenStages(t *testing.T) {
	for _, stage := range []string{"annotate", "build", "enumeration"} {
		ctx, cancel := context.WithCancel(context.Background())
		spec := testSpecs(1)[0]
		switch stage {
		case "annotate":
			spec.Annotator = hookAnnotator{spec.Annotator, cancel}
		case "build":
			spec.NewInductor = func(c *corpus.Corpus) (wrapper.Inductor, error) {
				cancel()
				return xpathFactory(c)
			}
		case "enumeration":
			spec.NewInductor = func(c *corpus.Corpus) (wrapper.Inductor, error) {
				return hookInductor{xpinduct.New(c, xpinduct.Options{}), cancel}, nil
			}
		}
		batch, err := LearnBatch(ctx, []SiteSpec{spec}, Options{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled during %s: batch err = %v, want context.Canceled", stage, err)
		}
		r := batch.Sites[0]
		if r.Result != nil || !errors.Is(r.Err, context.Canceled) || !strings.Contains(r.Err.Error(), "stopped after "+stage) {
			t.Fatalf("cancelled during %s: result %v, err %v", stage, r.Result, r.Err)
		}
		if st := batch.Stats; st.Failed != 1 || st.Learned != 0 || st.Unstarted != 0 {
			t.Fatalf("cancelled during %s: stats %+v", stage, st)
		}
	}
	// A context that ends only after the last stage changes nothing.
	batch, err := LearnBatch(context.Background(), testSpecs(1), Options{})
	if err != nil || batch.Sites[0].Result == nil {
		t.Fatalf("uncancelled batch: %v, %+v", err, batch.Sites[0])
	}
	if st := batch.Sites[0].Stages; st.Annotate <= 0 || st.Build <= 0 || st.Enumerate <= 0 || st.Rank <= 0 {
		t.Fatalf("stage times not recorded: %+v", st)
	}
}
