package core

// Per-tier dispatch benchmarks: one bench per rung of the dispatch ladder,
// so regressions in a single tier are attributable.
// BenchmarkCallCompiledRepeat is the steady-state repeat caller, which the
// compiled walk serves ahead of the memo; BenchmarkCallNovel is a
// never-seen input every call; BenchmarkCallExact times the full
// scaler+SVM pass with an undistilled model on inputs the memo has never
// seen; BenchmarkCallManyFeatures reports how many of 32 costed features a
// one-split program evaluates per call.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"nitro/internal/ml"
)

func benchCalls(b *testing.B, cv *CodeVariant[testInput], distinct int) {
	ins := make([]testInput, 16)
	for i := range ins {
		ins[i] = testInput{X: float64(i % distinct)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		if _, _, err := cv.Call(ins[i&15]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkCallCompiledRepeat: one repeated input (distinct=1) on a
// distilled model, so the compiled walk serves every call and the memo
// behind it is never consulted.
func BenchmarkCallCompiledRepeat(b *testing.B) {
	cv, _ := distilledConcurrentCV(b, DefaultPolicy("bench-repeat"))
	benchCalls(b, cv, 1)
}

// BenchmarkCallNovel: a never-seen vector every call, decided by the
// compiled walk.
func BenchmarkCallNovel(b *testing.B) {
	cv, _ := distilledConcurrentCV(b, DefaultPolicy("bench-novel"))
	benchNovel(b, cv)
}

// BenchmarkCallExact: an undistilled model and a never-seen vector every
// call, so neither the memo nor a compiled walk can decide — the full
// scaler + SVM pass.
func BenchmarkCallExact(b *testing.B) {
	cv, _ := buildConcurrentCV(b, DefaultPolicy("bench-exact"))
	benchNovel(b, cv)
}

// benchNovel calls cv on a fresh input every iteration.
func benchNovel(b *testing.B, cv *CodeVariant[testInput]) {
	b.ReportAllocs()
	x := 0.0
	for b.Loop() {
		x += 0.25
		if _, _, err := cv.Call(testInput{X: x}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallNoModel: the default-variant path (no model installed).
func BenchmarkCallNoModel(b *testing.B) {
	cv, _ := buildConcurrentCV(b, DefaultPolicy("bench-nomodel"))
	if err := cv.Context().SetModel("bench-nomodel", nil); err != nil {
		b.Fatal(err)
	}
	benchCalls(b, cv, 8)
}

// manyFeaturesCV registers 32 costed features (feature j reads X+j, costs
// 1 and counts its Eval runs) and installs a model whose program splits
// once, on feature 0: X <= 4.5 serves "small", above it "large".
func manyFeaturesCV(tb testing.TB, name string) (*CodeVariant[testInput], *atomic.Int64) {
	tb.Helper()
	const dim = 32
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy(name))
	cv.AddVariant("small", func(in testInput) float64 { return 1 + in.X })
	cv.AddVariant("large", func(in testInput) float64 { return 10 - in.X })
	evals := new(atomic.Int64)
	for j := 0; j < dim; j++ {
		cv.AddInputFeature(Feature[testInput]{
			Name: fmt.Sprint("f", j),
			Eval: func(in testInput) float64 { evals.Add(1); return in.X + float64(j) },
			Cost: func(testInput) float64 { return 1 },
		})
	}
	ds := &ml.Dataset{}
	for x := 0.0; x <= 9; x++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = x + float64(j)
		}
		ds.Append(row, map[bool]int{true: 0, false: 1}[x <= 4.5])
	}
	sc := &ml.Scaler{}
	scaled, err := sc.FitTransform(ds.X)
	if err != nil {
		tb.Fatal(err)
	}
	tree := ml.NewDecisionTree(2, 1)
	if err := tree.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		tb.Fatal(err)
	}
	m := &ml.Model{Classifier: tree, Scaler: sc, Compiled: &ml.Compiled{
		Nodes:   []ml.CompiledNode{{Feature: 0, Left: 1, Right: 2}, {Left: -1, Class: 0}, {Left: -1, Class: 1}},
		Classes: []int{0, 1}, Dim: dim, Margin: math.SmallestNonzeroFloat64,
	}}
	if err := cx.SetModel(name, m); err != nil {
		tb.Fatal(err)
	}
	return cv, evals
}

// BenchmarkCallManyFeatures: manyFeaturesCV's one-split program over 32
// costed features, so each call evaluates one feature; the features/op
// metric counts the Eval runs per call.
func BenchmarkCallManyFeatures(b *testing.B) {
	cv, evals := manyFeaturesCV(b, "bench-features")
	benchCalls(b, cv, 8)
	b.ReportMetric(float64(evals.Load())/float64(b.N), "features/op")
}
