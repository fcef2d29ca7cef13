package ml

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// fuzzSeedModels marshals one fitted model of every serializable kind, for
// the fuzz seed corpus and the lossless-round-trip check.
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
		NewKNN(3),
		NewDecisionTree(4, 1),
		NewLogistic(0, 0, 50),
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

// FuzzUnmarshalModel asserts the model deserializer is total: arbitrary bytes
// must produce either a model or an error — never a panic — and any blob that
// deserializes must round-trip to a fixed point (marshal ∘ unmarshal is
// idempotent, so nothing is silently lost or mutated).
func FuzzUnmarshalModel(f *testing.F) {
	seeds := fuzzSeedModels(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	// The distilled SVM seed again, in the per-pair form artifacts had
	// before the shared support-vector table.
	withCompiled, err := UnmarshalModel(seeds[len(seeds)-1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacyArtifact(f, withCompiled))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"svm"}`))
	f.Add([]byte(`{"kind":"knn","meta":{"version":2,"created_at":"2026-08-06T00:00:00Z","trained_on":7},"knn":{"k":1}}`))
	f.Add([]byte(`{"kind":"knn","meta":{},"knn":{"k":1}}`))
	f.Add([]byte(`{"kind":"knn","knn":{"k":-1}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"kind":"tree","tree":{"root":{"leaf":true}}}`))
	// Artifacts of the removed ensemble kind, well formed and not, which
	// the decoder rejects whatever their members hold.
	f.Add(ensembleArtifact(f))
	f.Add([]byte(`{"kind":"ensemble"}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"svm"}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"wat"}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0],"members":[{"kind":"ensemble","ensemble":{"members":[{"kind":"knn","knn":{"k":1}}]}}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"weights":[1],"members":[{"kind":"knn","knn":{"k":1}},{"kind":"tree","tree":{"root":null}}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"weights":[0.5,0.5],"calib":[{"lo":0,"hi":0.5,"n":3,"correct":1}],"members":[{"kind":"knn","knn":{"k":1,"x":[[0],[1]],"y":[0,1]}},{"kind":"logistic","logistic":{"lr":0.5,"l2":0.001,"iters":10,"w":[[0,0],[0,0]],"classes":[0,1]}}]}}`))
	// Compiled-artifact seeds: a minimal valid program, a looping program
	// (must be rejected), and a grid with a bad cell table.
	f.Add([]byte(`{"kind":"knn","knn":{"k":1,"x":[[0],[1]],"y":[0,1]},"compiled":{"nodes":[{"f":0,"l":1,"r":2,"c":-1,"t":0.5},{"f":0,"l":-1,"r":-1,"c":0,"t":0},{"f":0,"l":-1,"r":-1,"c":1,"t":0}],"classes":[0,1],"dim":1,"margin":0.01,"agreement":1,"fallback_rate":0,"corpus_size":2}}`))
	f.Add([]byte(`{"kind":"knn","knn":{"k":1,"x":[[0],[1]],"y":[0,1]},"compiled":{"nodes":[{"f":0,"l":0,"r":0,"c":-1,"t":0.5}],"classes":[0],"dim":1,"margin":0.01}}`))
	f.Add([]byte(`{"kind":"knn","knn":{"k":1,"x":[[0],[1]],"y":[0,1]},"compiled":{"nodes":[{"f":0,"l":-1,"r":-1,"c":0,"t":0}],"classes":[0],"dim":1,"margin":0,"grid":{"res":2,"lo":[0],"hi":[1],"cells":[0,0,0]}}}`))
	// Margin seeds: the 5e-324 fast path and the literals it must not
	// change the meaning of.
	for _, lit := range marginLiterals {
		f.Add([]byte(`{"kind":"knn","knn":{"k":1,"x":[[0],[1]],"y":[0,1]},"compiled":{"nodes":[{"f":0,"l":-1,"r":-1,"c":0,"t":0}],"classes":[0],"dim":1,"margin":` + lit + `}}`))
	}
	// SVM table seeds: a valid table, then an out-of-range and a negative
	// index, a length mismatch and a pair carrying both forms.
	for _, pair := range []string{`"sv":[1,0]`, `"sv":[0,2]`, `"sv":[-1,0]`, `"sv":[0]`, `"sv":[0,1],"svs":[[0],[1]]`} {
		f.Add([]byte(`{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":[[0],[1]],"pairs":[{"a":0,"b":1,` + pair + `,"coefs":[1,-1],"rho":0,"iters":1}]}}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalModel(data) // must never panic
		if err != nil {
			return
		}
		out1, err := MarshalModel(m)
		if err != nil {
			// A deserialized model that cannot re-serialize would lose the
			// artifact on the next save.
			t.Fatalf("deserialized model failed to marshal: %v", err)
		}
		m2, err := UnmarshalModel(out1)
		if err != nil {
			t.Fatalf("re-serialized model failed to parse: %v", err)
		}
		out2, err := MarshalModel(m2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %s\nsecond: %s", out1, out2)
		}
	})
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
