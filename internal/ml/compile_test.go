package ml

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// distilledBlobModel fits an RBF SVM on a gaussian-blob problem and distills
// it; returns the model (with Compiled installed), the raw corpus, and the
// artifact.
func distilledBlobModel(t *testing.T, n, k, dim int, spread float64, seed int64, opts DistillOptions) (*Model, [][]float64, *Compiled) {
	t.Helper()
	ds := blobs(n, k, dim, spread, seed)
	var s Scaler
	scaled, err := s.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := NewSVM(RBFKernel{Gamma: 0.7}, 4)
	if err := svm.Fit(&Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	model := &Model{Classifier: svm, Scaler: &s}
	c, err := Distill(model, ds.X, opts)
	if err != nil {
		t.Fatalf("Distill: %v", err)
	}
	model.Compiled = c
	return model, ds.X, c
}

// Property: the flattened program is decision-identical to the CART tree it
// was lowered from, on corpus points and random probes alike.
func TestFlattenedProgramMatchesTree(t *testing.T) {
	ds := blobs(90, 3, 3, 0.6, 11)
	tree := NewDecisionTree(8, 1)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	c := &Compiled{Nodes: flattenTree(tree), Classes: append([]int(nil), tree.Classes()...), Dim: 3}
	if err := c.Validate(); err != nil {
		t.Fatalf("flattened program invalid: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var x []float64
		if i < len(ds.X) {
			x = ds.X[i]
		} else {
			x = []float64{rng.Float64() * 20, rng.Float64() * 20, rng.Float64() * 20}
		}
		class, _ := c.walk(x)
		if want := tree.Predict(x); class != want {
			t.Fatalf("vector %v: flattened program says %d, tree says %d", x, class, want)
		}
	}
}

// Property: on every corpus point, the tiered dispatch (compiled with margin
// fallback) serves exactly the exact model's choice. This is the contract the
// deployment runtime relies on: Distill calibrates the margin so every corpus
// disagreement routes to the exact path.
func TestServedChoiceMatchesExactOnCorpus(t *testing.T) {
	model, corpus, c := distilledBlobModel(t, 120, 3, 2, 0.8, 42, DistillOptions{})
	if c.Agreement < 0.99 {
		t.Fatalf("agreement %.4f below install gate", c.Agreement)
	}
	compiledHits := 0
	for i, x := range corpus {
		want := model.PredictExact(x)
		got, tier := model.PredictTier(x)
		if got != want {
			t.Fatalf("corpus point %d: served %d via %s, exact model says %d", i, got, tier, want)
		}
		if tier == TierCompiled {
			compiledHits++
		}
	}
	if compiledHits == 0 {
		t.Fatal("compiled tier never decided — margin calibration routed everything to exact")
	}
	gotRate := 1 - float64(compiledHits)/float64(len(corpus))
	if math.Abs(gotRate-c.FallbackRate) > 1e-9 {
		t.Fatalf("observed fallback rate %.4f != calibrated %.4f", gotRate, c.FallbackRate)
	}
}

// Off-corpus probes near decision boundaries must either agree with the exact
// model or report ok=false (and thus route to the exact path).
func TestCompiledMarginFallback(t *testing.T) {
	model, _, c := distilledBlobModel(t, 120, 3, 2, 0.8, 7, DistillOptions{})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		raw := []float64{rng.Float64() * 16, rng.Float64() * 16}
		scaled := model.Scaler.Transform(raw)
		pred, ok := c.Predict(scaled)
		if !ok {
			continue // routed to exact — always correct by definition
		}
		_, margin := c.walk(scaled)
		if margin < c.Margin {
			t.Fatalf("probe %d: ok=true with walk margin %g < calibrated %g", i, margin, c.Margin)
		}
		class, _ := c.walk(scaled)
		if pred != class {
			t.Fatalf("probe %d: Predict %d != walk %d", i, pred, class)
		}
	}
}

// A depth-1 stump cannot represent XOR: agreement is 50%, far below the
// install gate, so Distill must refuse with ErrDistillRejected.
func TestDistillRejectedLowAgreement(t *testing.T) {
	ds := &Dataset{}
	for i := 0; i < 8; i++ {
		a, b := float64(i&1), float64((i>>1)&1)
		label := int(a) ^ int(b)
		ds.Append([]float64{a, b}, label)
	}
	xor := NewSVM(RBFKernel{Gamma: 2}, 100)
	if err := xor.Fit(ds); err != nil {
		t.Fatal(err)
	}
	model := &Model{Classifier: xor}
	for i, x := range ds.X {
		if got := model.PredictExact(x); got != ds.Y[i] {
			t.Fatalf("the teacher labels %v as %d, not XOR's %d", x, got, ds.Y[i])
		}
	}
	_, err := Distill(model, ds.X, DistillOptions{MaxDepth: 1})
	if !errors.Is(err, ErrDistillRejected) {
		t.Fatalf("want ErrDistillRejected, got %v", err)
	}
	// With the agreement gate lowered, the tree degenerates to a single leaf
	// (no split has gini gain on XOR): disagreements sit on an infinite-margin
	// path, so calibration cannot route them to the exact model and the
	// artifact must still be rejected rather than served unsafely.
	_, err = Distill(model, ds.X, DistillOptions{MaxDepth: 1, MinAgreement: 0.4})
	if !errors.Is(err, ErrDistillRejected) {
		t.Fatalf("want ErrDistillRejected via margin calibration, got %v", err)
	}
}

func TestDistillInputErrors(t *testing.T) {
	model, corpus, _ := distilledBlobModel(t, 40, 2, 2, 0.4, 3, DistillOptions{})
	if _, err := Distill(nil, corpus, DistillOptions{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Distill(model, nil, DistillOptions{}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Distill(model, [][]float64{{1, 2}, {3}}, DistillOptions{}); err == nil {
		t.Error("ragged corpus accepted")
	}
	if _, err := Distill(model, [][]float64{{}}, DistillOptions{}); err == nil {
		t.Error("zero-dimensional corpus accepted")
	}
}

// Validate must reject every malformed artifact shape the deserializer could
// be handed: cycles, dangling indices, bad calibration.
func TestCompiledValidateRejectsMalformed(t *testing.T) {
	leaf := func(class int32) CompiledNode { return CompiledNode{Left: -1, Right: -1, Class: class} }
	good := func() *Compiled {
		return &Compiled{
			Nodes: []CompiledNode{
				{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
				leaf(0), leaf(1),
			},
			Classes: []int{0, 1},
			Dim:     2,
			Margin:  0.01,
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good artifact rejected: %v", err)
	}
	cases := map[string]func(*Compiled){
		"no nodes":           func(c *Compiled) { c.Nodes = nil },
		"no classes":         func(c *Compiled) { c.Classes = nil },
		"dim zero":           func(c *Compiled) { c.Dim = 0 },
		"negative margin":    func(c *Compiled) { c.Margin = -1 },
		"NaN margin":         func(c *Compiled) { c.Margin = math.NaN() },
		"Inf margin":         func(c *Compiled) { c.Margin = math.Inf(1) },
		"agreement > 1":      func(c *Compiled) { c.Agreement = 1.5 },
		"fallback rate < 0":  func(c *Compiled) { c.FallbackRate = -0.1 },
		"self loop":          func(c *Compiled) { c.Nodes[0].Left = 0 },
		"backward edge":      func(c *Compiled) { c.Nodes[0].Right = 0 },
		"left out of range":  func(c *Compiled) { c.Nodes[0].Left = 9 },
		"feature out of dim": func(c *Compiled) { c.Nodes[0].Feature = 2 },
		"leaf class range":   func(c *Compiled) { c.Nodes[1].Class = 7 },
		"NaN threshold":      func(c *Compiled) { c.Nodes[0].Threshold = math.NaN() },
	}
	for name, mutate := range cases {
		c := good()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed artifact", name)
		}
	}
}

func TestCompiledDepth(t *testing.T) {
	leaf := func(class int32) CompiledNode { return CompiledNode{Left: -1, Right: -1, Class: class} }
	c := &Compiled{Nodes: []CompiledNode{leaf(0)}}
	if d := c.Depth(); d != 0 {
		t.Fatalf("single leaf depth = %d, want 0", d)
	}
	c = &Compiled{Nodes: []CompiledNode{
		{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		leaf(0),
		{Feature: 0, Threshold: 1, Left: 3, Right: 4},
		leaf(0), leaf(1),
	}}
	if d := c.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

// Serialization must round-trip the compiled artifact and its calibration
// metadata, and the deserialized model must keep serving identical choices.
func TestCompiledSerializationRoundTrip(t *testing.T) {
	model, corpus, c := distilledBlobModel(t, 100, 3, 2, 0.7, 13, DistillOptions{})
	data, err := MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	bc := back.Compiled
	if bc == nil {
		t.Fatal("compiled artifact lost in round trip")
	}
	if bc.Agreement != c.Agreement || bc.FallbackRate != c.FallbackRate ||
		bc.Margin != c.Margin || bc.CorpusSize != c.CorpusSize || bc.Dim != c.Dim {
		t.Fatalf("calibration metadata changed: %+v vs %+v", bc, c)
	}
	for i, x := range corpus {
		wantPred, wantTier := model.PredictTier(x)
		gotPred, gotTier := back.PredictTier(x)
		if gotPred != wantPred || gotTier != wantTier {
			t.Fatalf("corpus point %d: (%d,%s) after round trip, want (%d,%s)",
				i, gotPred, gotTier, wantPred, wantTier)
		}
	}
}

// Model files written while Compiled could carry a precomputed decision grid
// may hold a "grid" object in their compiled block. Such a file must still
// decode, and the grid must be ignored: every prediction and tier matches the
// same model without it.
func TestUnmarshalIgnoresLegacyGrid(t *testing.T) {
	model, corpus, c := distilledBlobModel(t, 100, 3, 2, 0.7, 13, DistillOptions{})
	data, err := MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	// A grid the old validator accepted: Res^Dim cells, Lo < Hi in every
	// dimension, each cell -1 (walk) or a class index.
	const res = 4
	cells := make([]int, res*res)
	for i := range cells {
		cells[i] = i%(len(c.Classes)+1) - 1
	}
	env["compiled"].(map[string]any)["grid"] = map[string]any{
		"res": res, "lo": []float64{-1.1, -1.1}, "hi": []float64{1.1, 1.1}, "cells": cells,
	}
	legacy, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(legacy)
	if err != nil {
		t.Fatalf("model with a legacy decision grid no longer decodes: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	for i, x := range corpus {
		for _, probe := range [][]float64{x, {x[0] + rng.NormFloat64(), x[1] + rng.NormFloat64()}} {
			wantPred, wantTier := model.PredictTier(probe)
			gotPred, gotTier := back.PredictTier(probe)
			if gotPred != wantPred || gotTier != wantTier {
				t.Fatalf("probe %d %v: (%d,%s) with the legacy grid, want (%d,%s)",
					i, probe, gotPred, gotTier, wantPred, wantTier)
			}
		}
	}
}

// UnmarshalModel must refuse artifacts whose compiled program is malformed —
// a corrupt program could loop or index out of bounds at dispatch time.
func TestUnmarshalRejectsBadCompiled(t *testing.T) {
	model, _, _ := distilledBlobModel(t, 60, 2, 2, 0.4, 9, DistillOptions{})
	data, err := MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	bad := string(data)
	// Corrupt the program: point the root's left child at itself.
	c := *model.Compiled
	c.Nodes = append([]CompiledNode(nil), c.Nodes...)
	if len(c.Nodes) > 1 && c.Nodes[0].Left > 0 {
		c.Nodes[0].Left = 0
	} else {
		t.Skip("artifact is a single leaf; nothing to corrupt")
	}
	model2 := *model
	model2.Compiled = &c
	badData, err := MarshalModel(&model2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalModel(badData); err == nil {
		t.Fatal("UnmarshalModel accepted a looping compiled program")
	}
	// The original still parses.
	if _, err := UnmarshalModel([]byte(bad)); err != nil {
		t.Fatal(err)
	}
}

func TestTierString(t *testing.T) {
	want := map[Tier]string{TierNone: "", TierExact: "exact", TierCompiled: "compiled", TierMemo: "memo", Tier(99): ""}
	for tier, s := range want {
		if tier.String() != s {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, tier.String(), s)
		}
	}
}

// The steady-state exact and compiled prediction paths must not allocate.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	model, corpus, _ := distilledBlobModel(t, 80, 3, 2, 0.8, 17, DistillOptions{})
	x := corpus[0]
	model.PredictExact(x) // warm the pool
	if n := testing.AllocsPerRun(200, func() { model.PredictExact(x) }); n != 0 {
		t.Errorf("PredictExact allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { model.PredictTier(x) }); n != 0 {
		t.Errorf("PredictTier allocates %v per run, want 0", n)
	}
}
