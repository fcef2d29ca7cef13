package ml

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// fuzzSeedModels marshals a fitted SVM model with each kernel, then one
// carrying a distilled program, for the fuzz seed corpus and the
// lossless-round-trip check.
func fuzzSeedModels(tb testing.TB) [][]byte {
	tb.Helper()
	ds := &Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		if x > 4.5 {
			label = 1
		}
		ds.Append([]float64{x, 9 - x}, label)
	}
	scaler := &Scaler{}
	scaledX, err := scaler.FitTransform(ds.X)
	if err != nil {
		tb.Fatal(err)
	}
	scaled := &Dataset{X: scaledX, Y: ds.Y}
	var out [][]byte
	for _, clf := range []Classifier{
		NewSVM(RBFKernel{Gamma: 0.5}, 4),
		NewSVM(LinearKernel{}, 1),
	} {
		if err := clf.Fit(scaled); err != nil {
			tb.Fatal(err)
		}
		data, err := MarshalModel(&Model{Classifier: clf, Scaler: scaler})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	// One model carrying a distilled compiled artifact, so the fuzzer
	// exercises the compiled round-trip and validation paths.
	svm := NewSVM(RBFKernel{Gamma: 0.5}, 4)
	if err := svm.Fit(scaled); err != nil {
		tb.Fatal(err)
	}
	withCompiled := &Model{Classifier: svm, Scaler: scaler}
	c, err := Distill(withCompiled, ds.X, DistillOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	withCompiled.Compiled = c
	data, err := MarshalModel(withCompiled)
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, data)
}

// TestModelRoundTripLossless asserts valid models survive a serialize /
// deserialize cycle exactly: identical serialized form and identical
// predictions.
func TestModelRoundTripLossless(t *testing.T) {
	for _, data := range fuzzSeedModels(t) {
		m, err := UnmarshalModel(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := MarshalModel(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("round trip changed the artifact:\nbefore: %s\nafter:  %s", data, again)
		}
		for x := 0.0; x <= 9; x += 0.5 {
			vec := []float64{x, 9 - x}
			m2, _ := UnmarshalModel(again)
			if m.Predict(vec) != m2.Predict(vec) {
				t.Fatalf("predictions diverged after round trip at %v", vec)
			}
		}
	}
}

// fuzzFloat maps one fuzz byte onto a threshold or margin: NaN, ±Inf and
// the smallest subnormal at the top of the range, steps of 1/32 around zero
// below it.
func fuzzFloat(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return math.SmallestNonzeroFloat64
	}
	return (float64(b) - 128) / 32
}

// compiledFromBytes decodes a compiled program from fuzz input: a dim byte,
// a class-count byte and that many labels, a margin byte, then five bytes
// per node (feature, left, right, class, threshold). Indices and labels are
// signed bytes, so negative, backward and out-of-range values reach
// Validate.
func compiledFromBytes(data []byte) *Compiled {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := &Compiled{Dim: int(next() % 4)}
	for n := next() % 5; n > 0; n-- {
		c.Classes = append(c.Classes, int(int8(next())))
	}
	c.Margin = fuzzFloat(next())
	for len(data) >= 5 {
		c.Nodes = append(c.Nodes, CompiledNode{
			Feature: int32(int8(next())), Left: int32(int8(next())), Right: int32(int8(next())),
			Class: int32(int8(next())), Threshold: fuzzFloat(next()),
		})
	}
	return c
}

// FuzzCompiledProgram asserts Compiled.Validate is total over arbitrary
// node arrays and that every program it accepts walks to a leaf: for any
// input, NaN and ±Inf features included, Compiled.Predict and
// Model.PredictTier on a model carrying the program answer a label from
// Classes. A walk that never ends hangs the fuzzer, which fails it.
func FuzzCompiledProgram(f *testing.F) {
	// One split over two leaves; the same with a backward edge, a
	// self-loop, an out-of-range class and a NaN threshold; a single leaf.
	f.Add([]byte{1, 2, 0, 1, 128, 0, 1, 2, 255, 128, 0, 255, 255, 0, 128, 0, 255, 255, 1, 128})
	f.Add([]byte{1, 2, 0, 1, 128, 0, 1, 0, 255, 128, 0, 255, 255, 0, 128})
	f.Add([]byte{1, 2, 0, 1, 128, 0, 0, 0, 255, 128})
	f.Add([]byte{1, 2, 0, 1, 128, 0, 1, 2, 255, 128, 0, 255, 255, 7, 128, 0, 255, 255, 1, 128})
	f.Add([]byte{1, 2, 0, 1, 128, 0, 1, 2, 255, 255, 0, 255, 255, 0, 128, 0, 255, 255, 1, 128})
	f.Add([]byte{2, 1, 3, 252, 0, 255, 255, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := compiledFromBytes(data) // Validate must never panic
		if c.Validate() != nil {
			return
		}
		zeros, ones := make([]float64, c.Dim), make([]float64, c.Dim)
		for j := range ones {
			ones[j] = 1
		}
		scaler := &Scaler{}
		if err := scaler.Fit([][]float64{zeros, ones}); err != nil {
			t.Fatal(err)
		}
		// The exact tier a declined walk falls back to answers from the
		// program's own labels.
		rows := make([][]float64, len(c.Classes))
		for i := range rows {
			rows[i] = zeros
		}
		exact := NewDecisionTree(1, 1)
		if err := exact.Fit(&Dataset{X: rows, Y: c.Classes}); err != nil {
			t.Fatal(err)
		}
		m := &Model{Classifier: exact, Scaler: scaler, Compiled: c}
		vals := []float64{0, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, n := range c.Nodes {
			vals = append(vals, n.Threshold)
		}
		for i := range vals {
			x := make([]float64, c.Dim)
			for j := range x {
				x[j] = vals[(i+j)%len(vals)]
			}
			if got, _ := c.Predict(x); !slices.Contains(c.Classes, got) {
				t.Fatalf("Compiled.Predict(%v) = %d, not in classes %v", x, got, c.Classes)
			}
			if got, _ := m.PredictTier(x); !slices.Contains(c.Classes, got) {
				t.Fatalf("Model.PredictTier(%v) = %d, not in classes %v", x, got, c.Classes)
			}
		}
	})
}
