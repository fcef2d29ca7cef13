package experiments

import (
	"fmt"

	"nitro/internal/autotuner"
	"nitro/internal/ml"
)

// DistillSuite trains a suite's model and distills it into a compiled
// artifact, installing it on the returned model. A distiller rejection (gate
// failure) is returned as an error: the CI agreement gate requires every
// benchmark to pass it.
func DistillSuite(s *autotuner.Suite, opts Options) (*ml.Model, error) {
	model, _, err := autotuner.Train(s.Train, opts.Norm().Train)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	corpus := make([][]float64, 0, len(s.Train))
	for _, in := range s.Train {
		corpus = append(corpus, in.Features)
	}
	c, err := ml.Distill(model, corpus, ml.DistillOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	model.Compiled = c
	return model, nil
}
