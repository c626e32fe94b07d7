package engine

import (
	"fmt"

	"autowrap/internal/annotate"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/lr"
	"autowrap/internal/rank"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// Wrapper languages a site can be learned in.
const (
	KindXPath = "xpath"
	KindLR    = "lr"
)

// inductorFactory resolves a kind to its inductor constructor, so a caller
// holding a kind from a flag can reject it before there is a corpus.
func inductorFactory(kind string) (func(*corpus.Corpus) (wrapper.Inductor, error), error) {
	switch kind {
	case KindXPath:
		return func(c *corpus.Corpus) (wrapper.Inductor, error) {
			return xpinduct.New(c, xpinduct.Options{}), nil
		}, nil
	case KindLR:
		return func(c *corpus.Corpus) (wrapper.Inductor, error) {
			return lr.New(c, 0), nil
		}, nil
	default:
		// The words are older than this function's home: wrapserved has
		// always refused an unknown -kind with exactly this line.
		return nil, fmt.Errorf("experiments: unknown inductor kind %q", kind)
	}
}

// NewInductor builds the named inductor over a site corpus.
func NewInductor(kind string, c *corpus.Corpus) (wrapper.Inductor, error) {
	build, err := inductorFactory(kind)
	if err != nil {
		return nil, err
	}
	return build(c)
}

// Recipe is the paper's learner as every command and the daemon run it:
// noisy labels from one annotator (a dictionary, in practice), the inductor
// of the given kind, candidates ranked under the generic models. It returns
// the per-site spec builder — the shape drift.LearnSpec names — after
// validating the kind once; the specs it builds share the annotator and the
// models and differ only in site name and corpus.
func Recipe(annot annotate.Annotator, kind string) (func(site string, c *corpus.Corpus) (SiteSpec, error), error) {
	newInductor, err := inductorFactory(kind)
	if err != nil {
		return nil, err
	}
	config := core.Config{Scorer: rank.GenericScorer()} // read-only once built: sites share it
	return func(site string, c *corpus.Corpus) (SiteSpec, error) {
		return SiteSpec{
			Name:        site,
			Corpus:      c,
			Annotator:   annot,
			NewInductor: newInductor,
			Config:      config,
		}, nil
	}, nil
}
