package experiments

import (
	"testing"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
)

// TestCompiledAgreementCorpora is the CI agreement gate: every benchmark's
// tuned model must distill into a compiled artifact whose served choices
// agree with the exact classifier on >= 99% of the training corpus. Distill
// itself enforces the gate (rejection is an error), so a single failing
// benchmark fails this test with the distiller's reason. The corpora have
// the paper's training sizes at reduced scale and train a grid-searched SVM
// on Norm's grid, the pipeline that serves. The gate reads only the
// training rows, so one test input per suite is enough.
func TestCompiledAgreementCorpora(t *testing.T) {
	opts := Options{Cfg: datasets.Config{Seed: 42, Scale: 0.2, TestCount: 1},
		Train: autotuner.TrainOptions{GridSearch: true}}
	suites, err := BuildSuites(opts, gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 5 {
		t.Fatalf("want 5 suites, got %d", len(suites))
	}
	for _, s := range suites {
		model, err := DistillSuite(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := model.Compiled
		predicted := map[int]bool{}
		for _, in := range s.Train {
			predicted[model.PredictExact(in.Features)] = true
		}
		t.Logf("%-10s agreement %6.2f%%  fallback %5.1f%%  nodes %3d  depth %d  classes %d",
			s.Name, 100*c.Agreement, 100*c.FallbackRate, len(c.Nodes), c.Depth(), len(predicted))
		// A teacher that predicts one class meets any agreement gate with a
		// single leaf, so it would prove nothing about distillation.
		if len(predicted) < 2 {
			t.Errorf("%s: the exact model predicts one class over the whole corpus", s.Name)
		}
		if c.Agreement < 0.99 {
			t.Errorf("%s: agreement %.4f below the 0.99 gate", s.Name, c.Agreement)
		}
		if c.FallbackRate > 0.5 {
			t.Errorf("%s: fallback rate %.2f above the 0.5 cap", s.Name, c.FallbackRate)
		}
		// A single-leaf program is valid when one variant dominates the whole
		// corpus (the exact model is constant there too) — only an empty
		// program is malformed.
		if len(c.Nodes) == 0 {
			t.Errorf("%s: empty compiled program", s.Name)
		}
	}
}
