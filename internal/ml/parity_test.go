package ml

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// fitTinyDataset returns the shared toy problem (two separable classes) both
// raw and scaled, for cross-classifier parity tests.
func fitTinyDataset(tb testing.TB) (raw, scaled *Dataset, scaler *Scaler) {
	tb.Helper()
	raw = &Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		if x > 4.5 {
			label = 1
		}
		raw.Append([]float64{x, 9 - x}, label)
	}
	scaler = &Scaler{}
	scaledX, err := scaler.FitTransform(raw.X)
	if err != nil {
		tb.Fatal(err)
	}
	return raw, &Dataset{X: scaledX, Y: raw.Y}, scaler
}

// parityClassifiers returns the SVM every artifact carries and the
// distiller's DecisionTree, which tests install as a model's classifier in
// process, each fitted on the tiny dataset.
func parityClassifiers(tb testing.TB) []Classifier {
	tb.Helper()
	_, scaled, _ := fitTinyDataset(tb)
	out := []Classifier{
		NewSVM(RBFKernel{Gamma: 0.5}, 4),
		NewDecisionTree(4, 1),
	}
	for _, clf := range out {
		if err := clf.Fit(scaled); err != nil {
			tb.Fatalf("%s: %v", clf.Name(), err)
		}
	}
	return out
}

// TestMetaStampingParity: an SVM model carries its ModelMeta stamp
// losslessly through serialize/deserialize, as a byte-identical fixed point.
// The stamped artifacts of the removed kinds, as the last release to serve
// them wrote them, are refused with the removed-kind error: the stamp does
// not make them loadable.
func TestMetaStampingParity(t *testing.T) {
	_, _, scaler := fitTinyDataset(t)
	meta := &ModelMeta{
		Version:   7,
		CreatedAt: time.Date(2026, 8, 8, 9, 30, 0, 0, time.UTC),
		TrainedOn: 10,
	}
	t.Run("svm", func(t *testing.T) {
		m := &Model{Classifier: parityClassifiers(t)[0], Scaler: scaler, Meta: meta}
		data, err := MarshalModel(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalModel(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Meta == nil || got.Meta.Version != 7 || got.Meta.TrainedOn != 10 || !got.Meta.CreatedAt.Equal(meta.CreatedAt) {
			t.Fatalf("meta round trip = %+v, want %+v", got.Meta, meta)
		}
		if got.Version() != 7 {
			t.Fatalf("Version() = %d, want 7", got.Version())
		}
		again, err := MarshalModel(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("stamped svm round trip is not a fixed point")
		}
	})
	for _, kind := range []string{"knn", "tree", "logistic"} {
		t.Run(kind, func(t *testing.T) {
			data := removedKindArtifact(t, kind)
			if !bytes.Contains(data, []byte(`"meta":{"version":7,"created_at":"2026-08-08T09:30:00Z","trained_on":10}`)) {
				t.Fatalf("the %s artifact carries no version-7 stamp: %s", kind, data)
			}
			m, err := DecodeArtifact(data, ETagOf(data))
			if !errors.Is(err, ErrKindRemoved) || !strings.Contains(err.Error(), `"`+kind+`"`) {
				t.Fatalf("stamped %s artifact: model %+v, err %v, want the removed-kind error naming the kind", kind, m, err)
			}
		})
	}
}

// TestRankedClassesParity asserts the RankedClasses contract holds for the
// SVM and the distiller's tree: Ranked[0] == Predict(x), the full class set appears
// exactly once, and repeated calls are identical (no hidden nondeterminism).
func TestRankedClassesParity(t *testing.T) {
	_, _, scaler := fitTinyDataset(t)
	for _, clf := range parityClassifiers(t) {
		t.Run(clf.Name(), func(t *testing.T) {
			m := &Model{Classifier: clf, Scaler: scaler}
			for x := 0.0; x <= 9; x += 0.25 {
				vec := []float64{x, 9 - x}
				ranked := m.RankedClasses(vec)
				if len(ranked) != len(clf.Classes()) {
					t.Fatalf("ranked %v misses classes %v", ranked, clf.Classes())
				}
				if ranked[0] != m.Predict(vec) {
					t.Fatalf("at %v: ranked[0]=%d but Predict=%d", vec, ranked[0], m.Predict(vec))
				}
				seen := map[int]bool{}
				for _, c := range ranked {
					if seen[c] {
						t.Fatalf("class %d ranked twice at %v", c, vec)
					}
					seen[c] = true
				}
				for i := 0; i < 3; i++ {
					again := m.RankedClasses(vec)
					for j := range ranked {
						if again[j] != ranked[j] {
							t.Fatalf("ranking at %v not deterministic: %v vs %v", vec, ranked, again)
						}
					}
				}
			}
		})
	}
}

// TestRankedClassesTieBreakDeterminism constructs genuine score ties (every
// training point identical, balanced labels → uniform leaf counts) and
// asserts ties break toward Classes() order with Ranked[0] == Predict, on
// the distiller's tree.
func TestRankedClassesTieBreakDeterminism(t *testing.T) {
	tied := &Dataset{}
	for i := 0; i < 4; i++ {
		tied.Append([]float64{1, 1}, i%2)
	}
	for _, clf := range []Classifier{NewDecisionTree(4, 1)} {
		t.Run(clf.Name(), func(t *testing.T) {
			if err := clf.Fit(tied); err != nil {
				t.Fatal(err)
			}
			m := &Model{Classifier: clf}
			vec := []float64{1, 1}
			scores := m.Scores(vec)
			if scores[0] != scores[1] {
				t.Skipf("no tie produced (scores %v); tie break not exercisable here", scores)
			}
			ranked := m.RankedClasses(vec)
			if ranked[0] != clf.Classes()[0] {
				t.Fatalf("tie broke to %d, want first class %d", ranked[0], clf.Classes()[0])
			}
			if ranked[0] != m.Predict(vec) {
				t.Fatalf("tie break: ranked[0]=%d != Predict=%d", ranked[0], m.Predict(vec))
			}
		})
	}
}
