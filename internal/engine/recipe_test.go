package engine_test

import (
	"context"
	"testing"

	"autowrap"
	"autowrap/internal/dataset"
	"autowrap/internal/engine"
)

// TestRecipeLearnsWhatTheFacadeLearns: the spec the recipe builds, run on
// the batch engine, ranks the same wrapper space — candidate for candidate,
// rule and score — as the facade's single-site Learn spelled out by hand
// with the generic models, in both wrapper languages.
func TestRecipeLearnsWhatTheFacadeLearns(t *testing.T) {
	ds, err := dataset.Dealers(dataset.DealersOptions{NumSites: 2, NumPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	inductors := map[string]func(*autowrap.Corpus) autowrap.Inductor{
		engine.KindXPath: autowrap.NewXPathInductor,
		engine.KindLR:    func(c *autowrap.Corpus) autowrap.Inductor { return autowrap.NewLRInductor(c, 0) },
	}
	for kind, byHand := range inductors {
		recipe, err := engine.Recipe(ds.Annotator, kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range ds.Sites {
			c := site.Corpus
			want, err := autowrap.Learn(byHand(c), ds.Annotator.Annotate(c), autowrap.GenericModels(c), autowrap.Options{})
			if err != nil {
				t.Fatal(err)
			}
			spec, err := recipe(site.Name, c)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := engine.LearnBatch(context.Background(), []engine.SiteSpec{spec}, engine.Options{})
			if err != nil || batch.Sites[0].Err != nil {
				t.Fatalf("%s/%s: batch: %v, site: %v", kind, site.Name, err, batch.Sites[0].Err)
			}
			got := batch.Sites[0]
			if got.Name != site.Name || got.Result == nil || len(got.Result.Candidates) != len(want.Candidates) {
				t.Fatalf("%s/%s: result %+v, want %d candidates", kind, site.Name, got, len(want.Candidates))
			}
			if len(want.Candidates) == 0 {
				t.Fatalf("%s/%s: nothing learned; the comparison is vacuous", kind, site.Name)
			}
			for i, w := range want.Candidates {
				g := got.Result.Candidates[i]
				if g.Wrapper.Rule() != w.Wrapper.Rule() || g.Score != w.Score {
					t.Errorf("%s/%s candidate %d: %s %+v, want %s %+v",
						kind, site.Name, i, g.Wrapper.Rule(), g.Score, w.Wrapper.Rule(), w.Score)
				}
			}
		}
	}
}

func TestRecipeRejectsUnknownKind(t *testing.T) {
	if _, err := engine.Recipe(nil, "hlrt"); err == nil {
		t.Fatal("an unknown kind built a recipe")
	}
	if _, err := engine.NewInductor("hlrt", nil); err == nil {
		t.Fatal("an unknown kind built an inductor")
	}
}
