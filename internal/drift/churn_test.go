package drift_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autowrap/internal/annotate"
	"autowrap/internal/drift"
	"autowrap/internal/gen"
	"autowrap/internal/store"
)

// churnSite is the recorded benchmark's heal_under_load site rebuilt from
// internal/gen: learned on 12 small pages of its original template, then
// fed 12-page repairs of 150–200 records that alternate between the
// drifted template (tmpl[0], Drift 2) and the original (tmpl[1]), under a
// dictionary annotator that knows 24 % of the business pool. Each repair
// meets an incumbent that extracts nothing from the other template, so
// every repair in the cycle promotes.
type churnSite struct {
	name  string
	annot annotate.Annotator
	store *store.Store
	tmpl  [2][]string
}

func (c *churnSite) repairer() *drift.Repairer {
	return &drift.Repairer{Store: c.store, Spec: learnSpec(c.annot)}
}

func renderDealer(tb testing.TB, cfg gen.DealerConfig, pages, minRec, maxRec, driftSteps int) *gen.Site {
	tb.Helper()
	cfg.NumPages, cfg.MinRecords, cfg.MaxRecords, cfg.Drift = pages, minRec, maxRec, driftSteps
	s, err := gen.DealerSite(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// newChurnSite draws site seeds until one has the wanted layout and its two
// templates heal into each other for a full cycle and a half.
func newChurnSite(tb testing.TB, layout string) *churnSite {
	tb.Helper()
	pool := gen.BusinessPool(1, 4000, 0)
	rng := rand.New(rand.NewSource(2))
	var dict []string
	for _, b := range pool {
		if rng.Float64() < 0.24 {
			dict = append(dict, b.Name)
		}
	}
	annot := annotate.NewDictionary("dict", dict)
	for seed := int64(1); seed < 400; seed++ {
		cfg := gen.DealerConfig{Seed: seed, SiteName: "churn-" + layout, Pool: pool}
		if renderDealer(tb, cfg, 1, 3, 9, 0).Layout != layout {
			continue
		}
		c := &churnSite{name: cfg.SiteName, annot: annot, store: store.New()}
		learnInto(tb, c.store, renderDealer(tb, cfg, 12, 3, 9, 0), annot)
		for k := range c.tmpl {
			c.tmpl[k] = htmlsOf(renderDealer(tb, cfg, 12, 150, 200, 2*(1-k)))
		}
		if c.heals(3) {
			return c
		}
	}
	tb.Fatalf("no churn site with layout %s qualified", layout)
	return nil
}

// heals runs n repairs of the cycle and reports whether every one promoted.
func (c *churnSite) heals(n int) bool {
	rep := c.repairer()
	for k := 0; k < n; k++ {
		report, err := rep.Repair(context.Background(), c.name, c.tmpl[k%2])
		if err != nil || !report.Promoted {
			return false
		}
	}
	return true
}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/churn_repairs.golden from this build's output")

// TestChurnRepairsGolden holds the whole repair path — parse, dictionary
// annotation, feature build, enumeration, ranking, held-out validation — to
// a file generated at the commit before its hot paths were rewritten
// (PR 17): four repairs per layout on the churn site, each report rendered
// down to the candidate's rule, score and label count and both held-out
// tallies. A pure optimization leaves the file untouched.
func TestChurnRepairsGolden(t *testing.T) {
	var sb strings.Builder
	for _, layout := range churnLayouts {
		c := newChurnSite(t, layout)
		rep := c.repairer()
		for k := 1; k <= 4; k++ {
			r, err := rep.Repair(context.Background(), c.name, c.tmpl[k%2])
			if err != nil {
				t.Fatalf("%s repair %d: %v", layout, k, err)
			}
			fmt.Fprintf(&sb, "%s #%d train=%d holdout=%d v%d promoted=%v incumbent=%v labels=%d score=%.4f\n  rule %s\n  candidate %d/%d pages %d records, incumbent %d/%d pages %d records\n",
				layout, k, r.TrainPages, r.HoldoutPages, r.Candidate.Version, r.Promoted, r.HadIncumbent,
				r.Candidate.Labels, r.Candidate.Score, r.Candidate.Rule,
				r.CandidateEval.NonEmpty, r.CandidateEval.Pages, r.CandidateEval.Records,
				r.IncumbentEval.NonEmpty, r.IncumbentEval.Pages, r.IncumbentEval.Records)
		}
	}
	path := filepath.Join("testdata", "churn_repairs.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("churn repairs moved (rerun with -update-golden only for a deliberate learner change)\n--- got\n%s\n--- want\n%s", got, want)
	}
}
