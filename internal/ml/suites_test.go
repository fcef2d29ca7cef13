package ml_test

import (
	"testing"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
)

// TestSuiteArtifactsMatchLegacyForm tunes and distills the five suites at a
// small scale and decodes each model from both artifact forms: the compact
// shared-table form MarshalModel writes and the indented per-pair form
// written before it. Both must decide bit for bit like the tuned model on
// the held-out inputs, and the compact form must be the smaller one.
func TestSuiteArtifactsMatchLegacyForm(t *testing.T) {
	suites, err := datasets.All(datasets.Config{Seed: 25, Scale: 0.1, TrainCount: 24, TestCount: 36}, gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 5 {
		t.Fatalf("want 5 suites, got %d", len(suites))
	}
	opts := autotuner.TrainOptions{GridSearch: true, Seed: 25, Grid: ml.GridConfig{
		CValues: []float64{0.5, 4, 32, 256}, GammaValues: []float64{1.0 / 128, 1.0 / 16, 0.5, 4}, Folds: 4, Seed: 25,
	}}
	for _, s := range suites {
		model, _, err := autotuner.Train(s.Train, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var corpus, heldOut [][]float64
		for _, in := range s.Train {
			corpus = append(corpus, in.Features)
		}
		for _, in := range s.Test {
			heldOut = append(heldOut, in.Features)
		}
		if model.Compiled, err = ml.Distill(model, corpus, ml.DistillOptions{}); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		legacy := ml.LegacyArtifact(t, model)
		compact, err := ml.MarshalModel(model)
		if err != nil {
			t.Fatal(err)
		}
		svm := model.Classifier.(*ml.SVM)
		t.Logf("%-10s %6d -> %6d bytes, support vectors %d -> %d",
			s.Name, len(legacy), len(compact), svm.NumSupportVectors(), svm.NumDistinctSupportVectors())
		if len(compact) >= len(legacy) {
			t.Errorf("%s: compact artifact %d bytes, legacy %d", s.Name, len(compact), len(legacy))
		}
		for _, data := range [][]byte{legacy, compact} {
			decoded, err := ml.UnmarshalModel(data)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			ml.AssertSamePredictions(t, model, decoded, heldOut)
		}
	}
}
