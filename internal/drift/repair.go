package drift

import (
	"context"
	"fmt"
	"time"

	"autowrap/internal/corpus"
	"autowrap/internal/engine"
	"autowrap/internal/store"
	"autowrap/internal/wrapper"
)

// LearnSpec builds the re-learning recipe for one site over a fresh
// corpus: which annotator (or precomputed labels), which inductor, which
// ranking models. The repairer owns the corpus split; the spec owns
// everything the engine needs to learn from it. Spec.Corpus is overwritten
// by the repairer with the training corpus it parsed.
type LearnSpec func(site string, c *corpus.Corpus) (engine.SiteSpec, error)

// Eval summarizes one wrapper's behaviour on the held-out sample.
type Eval struct {
	// Pages is the held-out sample size; NonEmpty the pages the wrapper
	// extracted at least one record from.
	Pages, NonEmpty int
	// Records totals the extracted records over the sample.
	Records int
}

// MeanRecords is the mean record count over the sample.
func (e Eval) MeanRecords() float64 {
	if e.Pages == 0 {
		return 0
	}
	return float64(e.Records) / float64(e.Pages)
}

// beats reports whether the candidate's held-out behaviour strictly
// improves on the incumbent's: more non-empty pages, or the same coverage
// with more records. Ties lose — a candidate that merely matches the
// incumbent is not worth a serving flip.
func (e Eval) beats(incumbent Eval) bool {
	if e.NonEmpty != incumbent.NonEmpty {
		return e.NonEmpty > incumbent.NonEmpty
	}
	return e.Records > incumbent.Records
}

// Report is one repair attempt's outcome. The candidate is always stored
// (a rejected attempt stays in history for debugging); Promoted says
// whether serving flipped to it.
type Report struct {
	Site string
	// TrainPages and HoldoutPages describe the fresh-page split.
	TrainPages, HoldoutPages int
	// Candidate is the staged store entry of the re-learned wrapper.
	Candidate store.Entry
	// Promoted reports whether the candidate beat the incumbent on the
	// held-out sample and is now the serving version.
	Promoted bool
	// HadIncumbent is false when the site had no active version (first
	// learn): the candidate is promoted unconditionally.
	HadIncumbent bool
	// CandidateEval and IncumbentEval are the held-out comparisons.
	CandidateEval, IncumbentEval Eval
	// LearnElapsed is the wall-clock re-learning time; Stages breaks the
	// whole repair down.
	LearnElapsed time.Duration
	Stages       Stages
}

// Stages is where one repair's wall-clock time went.
type Stages struct {
	// Parse is building the training corpus from the fresh pages.
	Parse time.Duration
	// Annotate, Build, Enumerate and Rank are the re-learn's own stages.
	engine.Stages
	// Validate is the held-out comparison: candidate and incumbent each
	// read every held-out page from the token stream.
	Validate time.Duration
	// Promote is staging the candidate and, on a win, promoting it.
	Promote time.Duration
}

// String renders the report as a one-line summary.
func (r *Report) String() string {
	verdict := "rejected (incumbent keeps serving)"
	if r.Promoted {
		verdict = "promoted"
	}
	return fmt.Sprintf(
		"site=%s candidate=v%d %s: candidate %d/%d pages %d records vs incumbent %d/%d pages %d records (train=%d holdout=%d learn=%v)",
		r.Site, r.Candidate.Version, verdict,
		r.CandidateEval.NonEmpty, r.CandidateEval.Pages, r.CandidateEval.Records,
		r.IncumbentEval.NonEmpty, r.IncumbentEval.Pages, r.IncumbentEval.Records,
		r.TrainPages, r.HoldoutPages, r.LearnElapsed.Round(time.Millisecond))
}

// Repairer closes the monitor → relearn → promote loop for tripped sites.
// All fields but Store and Spec are optional.
type Repairer struct {
	// Store is the versioned registry repairs are staged into.
	Store *store.Store
	// Spec builds the per-site re-learning recipe.
	Spec LearnSpec
	// HoldoutEvery holds out every k-th fresh page for validation
	// (default 4, i.e. a 25% held-out sample; minimum one page is always
	// held out and one trained on).
	HoldoutEvery int
	// Engine configures the re-learning batch (worker count, label
	// threshold). The zero value works.
	Engine engine.Options
	// Monitor, when set, is re-armed after a promotion: the site's window
	// is reset against the new wrapper's profile.
	Monitor *Monitor
}

// Repair re-learns one site from its freshest pages and promotes the
// result only if it beats the incumbent on a held-out sample of those
// pages. The candidate is staged as a new store version either way; the
// previous serving version remains addressable for store.Rollback.
//
// The flow is the lifecycle's write half: split fresh pages into train and
// held-out, learn on the train split through the engine (per-site panic
// isolation and cancellation included), stage the winner with its new
// learn-time profile, extract the held-out pages with both candidate and
// incumbent, and promote on a strict win.
func (r *Repairer) Repair(ctx context.Context, site string, fresh []string) (*Report, error) {
	if r.Store == nil || r.Spec == nil {
		return nil, fmt.Errorf("drift: repair %s: Repairer needs Store and Spec", site)
	}
	if len(fresh) < 2 {
		return nil, fmt.Errorf("drift: repair %s: need at least 2 fresh pages, got %d",
			site, len(fresh))
	}
	every := r.HoldoutEvery
	if every <= 1 {
		every = 4
	}
	var train, holdout []string
	for i, html := range fresh {
		// Offset by 1 so page 0 (often the most representative) trains.
		if (i+1)%every == 0 {
			holdout = append(holdout, html)
		} else {
			train = append(train, html)
		}
	}
	if len(holdout) == 0 {
		holdout = append(holdout, train[len(train)-1])
		train = train[:len(train)-1]
	}

	// Re-learn on the training split.
	report := &Report{Site: site, TrainPages: len(train), HoldoutPages: len(holdout)}
	start := time.Now()
	c := corpus.ParseHTML(train)
	report.Stages.Parse = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("drift: repair %s: stopped after parse: %w", site, err)
	}
	spec, err := r.Spec(site, c)
	if err != nil {
		return nil, fmt.Errorf("drift: repair %s: spec: %w", site, err)
	}
	spec.Name, spec.Corpus = site, c
	start = time.Now()
	batch, err := engine.LearnBatch(ctx, []engine.SiteSpec{spec}, r.Engine)
	if err != nil {
		return nil, fmt.Errorf("drift: repair %s: %w", site, err)
	}
	res := &batch.Sites[0]
	switch {
	case res.Err != nil:
		return nil, fmt.Errorf("drift: repair %s: relearn: %w", site, res.Err)
	case res.Skipped:
		return nil, fmt.Errorf("drift: repair %s: relearn skipped: too few labels on fresh pages", site)
	case res.Result == nil || res.Result.Best == nil:
		return nil, fmt.Errorf("drift: repair %s: relearn produced no wrapper", site)
	}
	best := res.Result.Best
	candidate, err := store.Compile(best.Wrapper)
	if err != nil {
		return nil, fmt.Errorf("drift: repair %s: compile: %w", site, err)
	}
	report.LearnElapsed, report.Stages.Stages = time.Since(start), res.Stages

	// Validate against the incumbent on the held-out split.
	start = time.Now()
	var incumbent wrapper.Portable
	incumbentEntry, hasIncumbent := r.Store.Active(site)
	report.HadIncumbent = hasIncumbent
	if hasIncumbent {
		if incumbent, err = incumbentEntry.Compile(); err != nil {
			return nil, fmt.Errorf("drift: repair %s: incumbent v%d: %w",
				site, incumbentEntry.Version, err)
		}
	}
	report.CandidateEval, report.IncumbentEval = evalOn(holdout, candidate, incumbent)
	report.Stages.Validate = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("drift: repair %s: stopped before staging: %w", site, err)
	}

	// Stage the candidate; promote only on a strict held-out win (or when
	// nothing serves yet).
	start = time.Now()
	meta := store.Meta{
		Score:   best.Score.Total,
		Profile: store.ProfileOf(c.PerPageCounts(best.Wrapper.Extract())),
	}
	if res.Labels != nil {
		meta.Labels = res.Labels.Count()
	}
	entry, err := r.Store.PutCandidate(site, candidate, meta)
	if err != nil {
		return nil, fmt.Errorf("drift: repair %s: stage: %w", site, err)
	}
	report.Candidate = entry
	if !hasIncumbent || report.CandidateEval.beats(report.IncumbentEval) {
		if _, err := r.Store.Promote(site, entry.Version); err != nil {
			return nil, fmt.Errorf("drift: repair %s: promote: %w", site, err)
		}
		report.Promoted = true
		if r.Monitor != nil {
			if h, ok := r.Monitor.Site(site); ok {
				h.Reset(entry.Profile)
			}
		}
	}
	report.Stages.Promote = time.Since(start)
	return report, nil
}

// evalOn tallies the extraction footprints of the candidate and, when there
// is one, the incumbent on the raw held-out pages. Each rule reads each page
// from the token stream, as serving does: no tree is built.
func evalOn(htmls []string, candidate, incumbent wrapper.Portable) (cand, inc Eval) {
	cand.Pages = len(htmls)
	if incumbent != nil {
		inc.Pages = len(htmls)
	}
	for _, html := range htmls {
		cand.add(len(candidate.ApplyHTML(html)))
		if incumbent != nil {
			inc.add(len(incumbent.ApplyHTML(html)))
		}
	}
	return cand, inc
}

// add tallies one page that yielded n records.
func (e *Eval) add(n int) {
	if n > 0 {
		e.NonEmpty++
		e.Records += n
	}
}
