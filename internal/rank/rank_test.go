package rank

import (
	"math"
	"strings"
	"testing"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/segment"
	"autowrap/internal/stats"
)

func recordSite(pages, recs int) *corpus.Corpus {
	var htmls []string
	for p := 0; p < pages; p++ {
		var sb strings.Builder
		sb.WriteString("<html><body><h1>header</h1><div class='list'>")
		for i := 0; i < recs; i++ {
			sb.WriteString("<div class='r'><b>name</b><span>addr</span><span>city</span><span>zip</span></div>")
		}
		sb.WriteString("</div><p>footer</p></body></html>")
		htmls = append(htmls, sb.String())
	}
	return corpus.ParseHTML(htmls)
}

func setOf(c *corpus.Corpus, content string) *bitset.Set {
	return c.MatchingText(func(s string) bool { return s == content })
}

func TestClampParams(t *testing.T) {
	m := NewAnnotationModel(0, 1)
	if m.P <= 0 || m.R >= 1 {
		t.Fatalf("params not clamped: %+v", m)
	}
	if v := m.LogLikelihood(bitset.New(4), bitset.FromIndices(4, []int{0})); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("likelihood not finite: %v", v)
	}
}

// TestEquation4MatchesFullForm: Eq. (4)'s proportional form must preserve
// score differences of the complete likelihood (the dropped factor is
// wrapper-independent).
func TestEquation4MatchesFullForm(t *testing.T) {
	c := recordSite(2, 3)
	m := NewAnnotationModel(0.9, 0.3)
	labels := setOf(c, "name")
	candidates := []*bitset.Set{
		setOf(c, "name"),
		setOf(c, "addr"),
		bitset.Or(setOf(c, "name"), setOf(c, "addr")),
		c.FullSet(),
		c.SetOf(0),
	}
	base := m.LogLikelihood(labels, candidates[0]) - m.FullLogLikelihood(c, labels, candidates[0])
	for _, x := range candidates[1:] {
		diff := m.LogLikelihood(labels, x) - m.FullLogLikelihood(c, labels, x)
		if math.Abs(diff-base) > 1e-9 {
			t.Fatalf("proportionality constant varies: %v vs %v", diff, base)
		}
	}
}

// TestLikelihoodOrdering: with a high-precision low-recall annotator, a
// wrapper covering the labels with moderate extra output must beat both the
// overfit tiny wrapper and the over-general full wrapper.
func TestLikelihoodOrdering(t *testing.T) {
	c := recordSite(4, 5) // 20 records
	m := NewAnnotationModel(0.95, 0.25)
	// Simulate labels: 5 of the 20 names.
	names := setOf(c, "name")
	labels := bitset.New(c.NumTexts())
	count := 0
	names.ForEach(func(ord int) {
		if count < 5 {
			labels.Add(ord)
			count++
		}
	})
	full := m.LogLikelihood(labels, c.FullSet())
	correct := m.LogLikelihood(labels, names)
	tiny := m.LogLikelihood(labels, labels.Clone()) // exactly the labels
	if correct <= full {
		t.Fatalf("correct list (%v) must beat the full universe (%v)", correct, full)
	}
	// The tiny wrapper explains the labels perfectly; Eq. (4) favors it on
	// the label term alone (that is exactly why P(X) exists).
	if tiny < correct {
		t.Fatalf("expected the overfit wrapper to win the label term: tiny=%v correct=%v", tiny, correct)
	}
}

func learnPub(t *testing.T, c *corpus.Corpus, gold *bitset.Set) *PublicationModel {
	t.Helper()
	pub, err := LearnPublicationModel(
		[]SiteSample{{Corpus: c, Gold: gold}}, segment.Options{}, stats.KDEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// TestPublicationPriorFavorsGoldList: P(X) must prefer the real record list
// over the all-text list and over a one-node-per-page list.
func TestPublicationPriorFavorsGoldList(t *testing.T) {
	c := recordSite(3, 6)
	gold := setOf(c, "name")
	pub := learnPub(t, c, gold)

	goldScore := pub.LogPrior(c, gold)
	allScore := pub.LogPrior(c, c.FullSet())
	headers := setOf(c, "header") // 1 per page -> no list
	headerScore := pub.LogPrior(c, headers)

	if goldScore <= allScore {
		t.Fatalf("gold list (%v) must beat all-text (%v)", goldScore, allScore)
	}
	if goldScore <= headerScore {
		t.Fatalf("gold list (%v) must beat the no-list penalty (%v)", goldScore, headerScore)
	}
	if headerScore != NoListLogPrior {
		t.Fatalf("single-node-per-page list should get the no-list prior, got %v", headerScore)
	}
}

func TestLearnPublicationModelNoSamples(t *testing.T) {
	if _, err := LearnPublicationModel(nil, segment.Options{}, stats.KDEOptions{}); err == nil {
		t.Fatal("expected error with no samples")
	}
	// Samples whose gold does not form a list are skipped; all-skipped is
	// an error.
	c := recordSite(1, 1)
	_, err := LearnPublicationModel(
		[]SiteSample{{Corpus: c, Gold: setOf(c, "name")}}, segment.Options{}, stats.KDEOptions{})
	if err == nil {
		t.Fatal("expected error when no sample segments")
	}
}

func TestScorerVariants(t *testing.T) {
	c := recordSite(3, 5)
	gold := setOf(c, "name")
	scorer := &Scorer{Ann: NewAnnotationModel(0.95, 0.3), Pub: learnPub(t, c, gold)}
	labels := c.SetOf(gold.Indices()[0], gold.Indices()[3])

	full := scorer.Score(c, labels, gold, NTW)
	lOnly := scorer.Score(c, labels, gold, NTWL)
	xOnly := scorer.Score(c, labels, gold, NTWX)
	if math.Abs(full.Total-(full.LogL+full.LogX)) > 1e-12 {
		t.Fatal("NTW total must be the sum of components")
	}
	if lOnly.Total != full.LogL || xOnly.Total != full.LogX {
		t.Fatal("variant totals must equal their single components")
	}
}

func TestScoreEmptyExtraction(t *testing.T) {
	c := recordSite(2, 3)
	gold := setOf(c, "name")
	scorer := &Scorer{Ann: NewAnnotationModel(0.95, 0.3), Pub: learnPub(t, c, gold)}
	sc := scorer.Score(c, gold, c.EmptySet(), NTW)
	if !math.IsInf(sc.Total, -1) {
		t.Fatalf("empty extraction should score -Inf, got %v", sc.Total)
	}
}

func TestVariantString(t *testing.T) {
	if NTW.String() != "NTW" || NTWL.String() != "NTW-L" || NTWX.String() != "NTW-X" {
		t.Fatal("variant names")
	}
}

// TestEndToEndRankingPicksGold ties both terms together: among candidate
// outputs, the full score must rank the gold list first even though the
// label term alone prefers the overfit candidate.
func TestEndToEndRankingPicksGold(t *testing.T) {
	c := recordSite(4, 5)
	gold := setOf(c, "name")
	scorer := &Scorer{Ann: NewAnnotationModel(0.95, 0.25), Pub: learnPub(t, c, gold)}

	labels := bitset.New(c.NumTexts())
	n := 0
	gold.ForEach(func(ord int) {
		if n%4 == 0 { // 25% recall
			labels.Add(ord)
		}
		n++
	})
	candidates := map[string]*bitset.Set{
		"gold":    gold,
		"overfit": labels.Clone(),
		"all":     c.FullSet(),
		"addrs":   setOf(c, "addr"),
	}
	best, bestScore := "", math.Inf(-1)
	for name, x := range candidates {
		if s := scorer.Score(c, labels, x, NTW).Total; s > bestScore {
			best, bestScore = name, s
		}
	}
	if best != "gold" {
		t.Fatalf("full score picked %q, want gold", best)
	}
}

// TestGenericScorerSharesItsDistributions: the generic distributions are
// built once, every call scores alike, and what a caller changes in the
// Scorer it got is not what the next call returns.
func TestGenericScorerSharesItsDistributions(t *testing.T) {
	c := recordSite(3, 5)
	gold := setOf(c, "name")
	labels := c.SetOf(gold.Indices()[0], gold.Indices()[3])
	score := func(s *Scorer) Score { return s.Score(c, labels, gold, NTW) }

	first, second := GenericScorer(), GenericScorer()
	if first == second || first.Pub == second.Pub {
		t.Fatal("two calls returned the same Scorer or PublicationModel")
	}
	if first.Pub.Schema != second.Pub.Schema || first.Pub.Align != second.Pub.Align {
		t.Fatal("the generic distributions were built again")
	}
	want := score(first)
	if got := score(second); got != want {
		t.Fatalf("second call scores %+v, first %+v", got, want)
	}
	first.Pub = learnPub(t, c, gold)
	first.Ann = NewAnnotationModel(0.5, 0.5)
	if score(first) == want {
		t.Fatal("the replaced models score as the generic ones: the fixture cannot tell them apart")
	}
	if got := score(GenericScorer()); got != want {
		t.Fatalf("after a caller replaced its models the next call scores %+v, want %+v", got, want)
	}
}
