package ml

import (
	"bytes"
	"encoding/json"
	"testing"
)

func fitTinyEnsemble(tb testing.TB) (*Ensemble, *Scaler) {
	tb.Helper()
	_, scaled, scaler := fitTinyDataset(tb)
	e := NewEnsemble()
	e.Folds = 2
	if err := e.Fit(scaled); err != nil {
		tb.Fatal(err)
	}
	return e, scaler
}

// TestEnsembleFitBasics pins the committee's structural invariants: default
// member stable, normalized weights, calibration bins, and a Predict that is
// at least as accurate on the training set as a coin flip on this separable
// toy problem.
func TestEnsembleFitBasics(t *testing.T) {
	_, scaled, _ := fitTinyDataset(t)
	e, _ := fitTinyEnsemble(t)
	if len(e.Members()) != 4 {
		t.Fatalf("default stable has %d members, want 4", len(e.Members()))
	}
	var sum float64
	for _, w := range e.Weights() {
		if w <= 0 {
			t.Fatalf("non-positive member weight %v", w)
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
	if acc := Accuracy(e, scaled); acc < 0.9 {
		t.Fatalf("ensemble training accuracy %v on a separable toy problem", acc)
	}
	if e.Calibration() == nil {
		t.Fatal("expected a fitted calibration curve")
	}
	var binned int
	for _, b := range e.Calibration() {
		binned += b.N
		if b.Correct > b.N {
			t.Fatalf("bin %+v has more hits than samples", b)
		}
	}
	if binned != scaled.Len() {
		t.Fatalf("calibration binned %d of %d out-of-fold votes", binned, scaled.Len())
	}
}

// TestEnsembleDeterministicAcrossParallelism asserts serial and parallel fits
// produce byte-identical artifacts — the same bit-exactness contract the
// grid search upholds.
func TestEnsembleDeterministicAcrossParallelism(t *testing.T) {
	_, scaled, scaler := fitTinyDataset(t)
	marshal := func(parallelism int) []byte {
		e := NewEnsemble()
		e.Folds = 2
		e.Parallelism = parallelism
		if err := e.Fit(scaled); err != nil {
			t.Fatal(err)
		}
		data, err := MarshalModel(&Model{Classifier: e, Scaler: scaler})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial, parallel := marshal(1), marshal(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel ensemble fit is not bit-identical to serial")
	}
}

// TestEnsembleConfidence pins the confidence contract: values live in [0,1],
// unanimous regions score at least as high as the committee's contested
// boundary region, and Model.Confidence routes through the calibrated path.
func TestEnsembleConfidence(t *testing.T) {
	e, scaler := fitTinyEnsemble(t)
	m := &Model{Classifier: e, Scaler: scaler}
	deep := m.Confidence([]float64{0, 9})       // far inside class 0
	border := m.Confidence([]float64{4.5, 4.5}) // on the boundary
	for _, c := range []float64{deep, border} {
		if c < 0 || c > 1 {
			t.Fatalf("confidence %v outside [0,1]", c)
		}
	}
	if deep < border {
		t.Fatalf("deep-region confidence %v < boundary confidence %v", deep, border)
	}
	// Single-model fallback heuristic also stays in [0,1].
	svm, sc := fitTinySVM(t)
	sm := &Model{Classifier: svm, Scaler: sc}
	if c := sm.Confidence([]float64{1, 8}); c < 0 || c > 1 {
		t.Fatalf("svm heuristic confidence %v outside [0,1]", c)
	}
}

// TestEnsembleSerializationGuards exercises the failure edges of the
// "ensemble" kind: nested ensembles, corrupt members, weight mismatches and
// empty member lists must all error, never panic.
func TestEnsembleSerializationGuards(t *testing.T) {
	e, scaler := fitTinyEnsemble(t)
	nested := NewEnsemble(e)
	if err := nested.Fit(&Dataset{X: [][]float64{{0}}, Y: []int{0}}); err != ErrNestedEnsemble {
		t.Fatalf("nested fit error = %v, want ErrNestedEnsemble", err)
	}
	if _, err := MarshalModel(&Model{Classifier: NewEnsemble(NewEnsemble())}); err == nil {
		t.Fatal("nested ensemble must not serialize")
	}
	for name, blob := range map[string]string{
		"missing body":    `{"kind":"ensemble"}`,
		"no members":      `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[]}}`,
		"corrupt member":  `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"svm"}]}}`,
		"unknown member":  `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"wat"}]}}`,
		"nested member":   `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"ensemble","ensemble":{"members":[{"kind":"knn","knn":{"k":1}}]}}]}}`,
		"weight mismatch": `{"kind":"ensemble","ensemble":{"classes":[0,1],"weights":[0.5],"members":[{"kind":"knn","knn":{"k":1}},{"kind":"knn","knn":{"k":1}}]}}`,
	} {
		if _, err := UnmarshalModel([]byte(blob)); err == nil {
			t.Fatalf("%s: expected an error", name)
		}
	}
	// And the happy path stays a fixed point with real content.
	data, err := MarshalModel(&Model{Classifier: e, Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}
	var kinds struct {
		Kind     string `json:"kind"`
		Ensemble struct {
			Members []struct {
				Kind string `json:"kind"`
			} `json:"members"`
		} `json:"ensemble"`
	}
	if err := json.Unmarshal(data, &kinds); err != nil {
		t.Fatal(err)
	}
	if kinds.Kind != "ensemble" || len(kinds.Ensemble.Members) == 0 {
		t.Fatalf("artifact lacks the ensemble kind or its members:\n%s", data)
	}
	m2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MarshalModel(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("ensemble artifact round trip is not a fixed point")
	}
	for x := 0.0; x <= 9; x += 0.5 {
		vec := []float64{x, 9 - x}
		if m2.Predict(vec) != (&Model{Classifier: e, Scaler: scaler}).Predict(vec) {
			t.Fatalf("deserialized ensemble diverged at %v", vec)
		}
	}
}

// TestEnsembleDistills asserts ml.Distill labels its corpus through the
// ensemble exactly like a single model — the compiled fast path rides on top
// of the committee unchanged.
func TestEnsembleDistills(t *testing.T) {
	raw, _, _ := fitTinyDataset(t)
	e, scaler := fitTinyEnsemble(t)
	m := &Model{Classifier: e, Scaler: scaler}
	c, err := Distill(m, raw.X, DistillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Compiled = c
	for _, x := range raw.X {
		if got, want := m.Predict(x), e.Predict(scaler.Transform(x)); got != want {
			t.Fatalf("compiled ensemble predicts %d, exact committee %d at %v", got, want, x)
		}
	}
	// Explanation surfaces the committee vote.
	ex := m.Explain(raw.X[0])
	if ex.Ensemble == nil || len(ex.Ensemble.Members) != 4 {
		t.Fatalf("explanation lacks committee detail: %+v", ex.Ensemble)
	}
	if ex.Confidence < 0 || ex.Confidence > 1 {
		t.Fatalf("explanation confidence %v outside [0,1]", ex.Confidence)
	}
}
