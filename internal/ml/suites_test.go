package ml_test

import (
	"bytes"
	"sync"
	"testing"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
)

// tunedSuite is one suite's model, tuned and distilled at a small scale,
// with the suite's held-out inputs.
type tunedSuite struct {
	name    string
	model   *ml.Model
	heldOut [][]float64
}

var (
	suitesOnce sync.Once
	suites     []tunedSuite
	suitesErr  error
)

// tunedSuites tunes and distills the five suites once per test binary:
// grid-searched SVMs distilled over their training corpus, as the serving
// path ships them.
func tunedSuites(tb testing.TB) []tunedSuite {
	tb.Helper()
	suitesOnce.Do(func() { suites, suitesErr = tuneSuites() })
	if suitesErr != nil {
		tb.Fatal(suitesErr)
	}
	if len(suites) != 5 {
		tb.Fatalf("want 5 suites, got %d", len(suites))
	}
	return suites
}

func tuneSuites() ([]tunedSuite, error) {
	all, err := datasets.All(datasets.Config{Seed: 25, Scale: 0.1, TrainCount: 24, TestCount: 36}, gpusim.Fermi())
	if err != nil {
		return nil, err
	}
	opts := autotuner.TrainOptions{GridSearch: true, Seed: 25, Grid: ml.GridConfig{
		CValues: []float64{0.5, 4, 32, 256}, GammaValues: []float64{1.0 / 128, 1.0 / 16, 0.5, 4}, Folds: 4, Seed: 25,
	}}
	var out []tunedSuite
	for _, s := range all {
		model, _, err := autotuner.Train(s.Train, opts)
		if err != nil {
			return nil, err
		}
		var corpus, heldOut [][]float64
		for _, in := range s.Train {
			corpus = append(corpus, in.Features)
		}
		for _, in := range s.Test {
			heldOut = append(heldOut, in.Features)
		}
		if model.Compiled, err = ml.Distill(model, corpus, ml.DistillOptions{}); err != nil {
			return nil, err
		}
		out = append(out, tunedSuite{name: s.Name, model: model, heldOut: heldOut})
	}
	return out, nil
}

// TestSuiteArtifactsMatchLegacyForm decodes each suite's model from all
// three artifact forms: the binary form EncodeArtifact writes, the compact
// shared-table JSON MarshalModel writes and the indented per-pair JSON
// written before it. Each must decide bit for bit like the tuned model on
// the held-out inputs, each form must be smaller than the one before it,
// and the binary form must re-encode to its own bytes.
func TestSuiteArtifactsMatchLegacyForm(t *testing.T) {
	for _, s := range tunedSuites(t) {
		legacy := ml.LegacyArtifact(t, s.model)
		compact, err := ml.MarshalModel(s.model)
		if err != nil {
			t.Fatal(err)
		}
		bin, _, err := ml.EncodeArtifact(s.model)
		if err != nil {
			t.Fatal(err)
		}
		svm := s.model.Classifier.(*ml.SVM)
		t.Logf("%-10s %6d -> %6d -> %6d bytes, support vectors %d -> %d",
			s.name, len(legacy), len(compact), len(bin), svm.NumSupportVectors(), svm.NumDistinctSupportVectors())
		if len(compact) >= len(legacy) || len(bin) >= len(compact) {
			t.Errorf("%s: binary artifact %d bytes, compact %d, legacy %d", s.name, len(bin), len(compact), len(legacy))
		}
		for _, data := range [][]byte{legacy, compact, bin} {
			decoded, err := ml.UnmarshalModel(data)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			ml.AssertSamePredictions(t, s.model, decoded, s.heldOut)
		}
		back, err := ml.UnmarshalModel(bin)
		if err != nil {
			t.Fatal(err)
		}
		if again, _, err := ml.EncodeArtifact(back); err != nil || !bytes.Equal(again, bin) {
			t.Fatalf("%s: binary artifact is not a fixed point (err %v)", s.name, err)
		}
	}
}

// BenchmarkSuiteArtifactDecode times the install path's decode,
// DecodeArtifact with its ETag check, of each suite's model in both
// artifact forms, and reports each artifact's size.
func BenchmarkSuiteArtifactDecode(b *testing.B) {
	for _, s := range tunedSuites(b) {
		js, err := ml.MarshalModel(s.model)
		if err != nil {
			b.Fatal(err)
		}
		bin, _, err := ml.EncodeArtifact(s.model)
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct {
			name string
			data []byte
		}{{"json", js}, {"binary", bin}} {
			etag := ml.ETagOf(form.data)
			b.Run(s.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ml.DecodeArtifact(form.data, etag); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(form.data)), "artifact-B")
			})
		}
	}
}
