// Package rank implements the paper's ranking model (Sec. 6): a wrapper w
// with output X scores P(L | X) · P(X), where P(L | X) models the noisy
// annotation process (Eq. 4) and P(X) models the goodness of X as a list
// under the web publication model (schema-size and alignment features with
// KDE-learned distributions).
package rank

import (
	"fmt"
	"math"
	"sync"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/segment"
	"autowrap/internal/stats"
)

// paramEps clamps the annotator parameters away from {0, 1} so the log
// odds stay finite.
const paramEps = 1e-4

// AnnotationModel holds the annotator parameters of Sec. 6: each node of
// the correct list X is labeled with probability r; each other node is
// labeled with probability 1−p.
type AnnotationModel struct {
	P float64
	R float64
}

// NewAnnotationModel clamps the parameters to (0, 1).
func NewAnnotationModel(p, r float64) AnnotationModel {
	return AnnotationModel{P: clamp(p), R: clamp(r)}
}

func clamp(v float64) float64 {
	if v < paramEps {
		return paramEps
	}
	if v > 1-paramEps {
		return 1 - paramEps
	}
	return v
}

// LogLikelihood computes ln P(L | X) up to the wrapper-independent constant,
// exactly Eq. (4):
//
//	P(L|X) ∝ (r/(1−p))^|L∩X| · ((1−r)/p)^|X\L|
func (m AnnotationModel) LogLikelihood(labels, x *bitset.Set) float64 {
	inBoth := bitset.AndCount(labels, x)
	onlyX := x.Count() - inBoth
	return float64(inBoth)*math.Log(m.R/(1-m.P)) +
		float64(onlyX)*math.Log((1-m.R)/m.P)
}

// FullLogLikelihood computes the unnormalized complete form
// r^|X1|·(1−r)^|X2|·(1−p)^|A1|·p^|A2| (used by tests to verify that
// Eq. (4)'s proportional form preserves score differences).
func (m AnnotationModel) FullLogLikelihood(c *corpus.Corpus, labels, x *bitset.Set) float64 {
	x1 := bitset.AndCount(labels, x)    // X ∩ L
	x2 := x.Count() - x1                // X \ L
	a1 := labels.Count() - x1           // A ∩ L
	a2 := c.NumTexts() - x.Count() - a1 // A \ L
	return float64(x1)*math.Log(m.R) + float64(x2)*math.Log(1-m.R) +
		float64(a1)*math.Log(1-m.P) + float64(a2)*math.Log(m.P)
}

// NoListLogPrior is the ln P(X) assigned to candidates that do not form a
// list at all (fewer than two record segments): roughly the mass of an
// unseen feature value under both KDEs.
var NoListLogPrior = 2 * math.Log(stats.DefaultFloor)

// PublicationModel scores ln P(X) via the two list features of Sec. 6.1.
type PublicationModel struct {
	Schema *stats.KDE
	Align  *stats.KDE
	Seg    segment.Options
}

// LogPrior computes ln P(X) = ln P(schema(X)) + ln P(align(X)).
func (m *PublicationModel) LogPrior(c *corpus.Corpus, x *bitset.Set) float64 {
	feats, ok := segment.Compute(c, x, m.Seg)
	if !ok {
		return NoListLogPrior
	}
	return m.Schema.LogProb(feats.SchemaSize) + m.Align.LogProb(feats.Alignment)
}

// SiteSample pairs a site's corpus with its gold list; the publication
// model's feature distributions are learned from such samples (paper: "we
// take a small sample of websites, look at the list of segments on each
// website and learn the distribution").
type SiteSample struct {
	Corpus *corpus.Corpus
	Gold   *bitset.Set
}

// LearnPublicationModel fits the schema-size and alignment KDEs from gold
// lists on sample sites.
func LearnPublicationModel(samples []SiteSample, seg segment.Options, kde stats.KDEOptions) (*PublicationModel, error) {
	var schemaVals, alignVals []int
	for _, s := range samples {
		feats, ok := segment.Compute(s.Corpus, s.Gold, seg)
		if !ok {
			continue
		}
		schemaVals = append(schemaVals, feats.SchemaSize)
		alignVals = append(alignVals, feats.Alignment)
	}
	if len(schemaVals) == 0 {
		return nil, fmt.Errorf("rank: no sample site produced a gold list with ≥2 segments")
	}
	schema, err := stats.NewKDE(schemaVals, kde)
	if err != nil {
		return nil, fmt.Errorf("rank: schema KDE: %w", err)
	}
	align, err := stats.NewKDE(alignVals, kde)
	if err != nil {
		return nil, fmt.Errorf("rank: alignment KDE: %w", err)
	}
	return &PublicationModel{Schema: schema, Align: align, Seg: seg}, nil
}

// Variant selects which score components participate (the Sec. 7.3
// ranking-component ablation).
type Variant int

const (
	// NTW uses the full score P(L|X)·P(X).
	NTW Variant = iota
	// NTWL uses only the annotation term P(L|X).
	NTWL
	// NTWX uses only the publication term P(X).
	NTWX
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case NTWL:
		return "NTW-L"
	case NTWX:
		return "NTW-X"
	default:
		return "NTW"
	}
}

// Scorer combines the two models.
type Scorer struct {
	Ann AnnotationModel
	Pub *PublicationModel
}

// GenericScorer returns ranking models with broad, domain-independent
// priors: annotator p=0.95/r=0.30 and publication-model distributions
// covering typical record lists (2–6 text fields per record, near-regular
// alignment). Models fitted from gold samples (LearnPublicationModel) rank
// better where samples exist; the generic ones are enough for
// well-structured sites and are what every dictionary-driven learn in the
// commands and the daemon uses.
//
// Each call returns a fresh Scorer and PublicationModel, which the caller
// may change; the two distributions are built once and shared, as nothing
// changes a KDE once built.
func GenericScorer() *Scorer {
	kdes := genericKDEs()
	return &Scorer{
		Ann: NewAnnotationModel(0.95, 0.30),
		Pub: &PublicationModel{Schema: kdes[0], Align: kdes[1]},
	}
}

// genericKDEs builds the generic schema-size and alignment distributions.
var genericKDEs = sync.OnceValue(func() [2]*stats.KDE {
	return [2]*stats.KDE{
		stats.MustKDE([]int{2, 3, 3, 4, 4, 5, 5, 6}, stats.KDEOptions{Support: 64}),
		stats.MustKDE([]int{0, 0, 0, 1, 1, 2, 3, 5}, stats.KDEOptions{Support: 256}),
	}
})

// Score breaks down a candidate's score. Ranking compares Total.
type Score struct {
	LogL  float64 // ln P(L|X) (up to constant)
	LogX  float64 // ln P(X)
	Total float64
}

// Score evaluates a candidate output x under the given variant.
func (s *Scorer) Score(c *corpus.Corpus, labels, x *bitset.Set, v Variant) Score {
	var sc Score
	if x.Empty() {
		// An empty extraction explains no labels and is never a list.
		sc.LogL = math.Inf(-1)
		sc.LogX = NoListLogPrior
	} else {
		sc.LogL = s.Ann.LogLikelihood(labels, x)
		sc.LogX = s.Pub.LogPrior(c, x)
	}
	switch v {
	case NTWL:
		sc.Total = sc.LogL
	case NTWX:
		sc.Total = sc.LogX
	default:
		sc.Total = sc.LogL + sc.LogX
	}
	return sc
}
