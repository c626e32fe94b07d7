// Package experiments contains one runner per table and figure of the
// paper's evaluation (Sec. 7 and Appendices A/B). Each runner returns a
// structured result that cmd/benchrun renders in the paper's format and
// that bench_test.go reports as benchmark metrics. DESIGN.md carries the
// experiment index mapping each figure to its runner.
package experiments

import (
	"autowrap/internal/corpus"
	"autowrap/internal/dataset"
	"autowrap/internal/engine"
	"autowrap/internal/segment"
	"autowrap/internal/stats"
	"autowrap/internal/wrapper"
)

// Inductor kinds used across experiments.
const (
	KindXPath = engine.KindXPath
	KindLR    = engine.KindLR
)

// NewInductor builds the named inductor over a site corpus.
func NewInductor(kind string, c *corpus.Corpus) (wrapper.Inductor, error) {
	return engine.NewInductor(kind, c)
}

// defaultModels learns the scorer from a dataset's training half with
// default segmentation and KDE settings.
func defaultModels(ds *dataset.Dataset) (*dataset.Models, error) {
	return dataset.LearnModels(ds.Train(), ds.TypeName, ds.Annotator,
		segment.Options{}, stats.KDEOptions{})
}
