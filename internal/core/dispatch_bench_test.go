package core

// Per-tier dispatch benchmarks: one bench per rung of the dispatch ladder,
// so regressions in a single tier are attributable. BenchmarkCallMemoHit is
// the steady-state repeat-caller fast path; BenchmarkCallNovel is its
// opposite, a memo miss on every call;
// BenchmarkCallExact times the full scaler+SVM pass with an undistilled
// model on inputs the memo has never seen.

import (
	"testing"
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

// BenchmarkCallMemoHit: repeat caller, memo tier serves every call after the
// first (distinct=1 keeps one hot entry).
func BenchmarkCallMemoHit(b *testing.B) {
	cv, _ := distilledConcurrentCV(b, DefaultPolicy("bench-memo"))
	benchCalls(b, cv, 1)
}

// BenchmarkCallNovel: a never-seen vector every call — the miss path, where
// the memo only records each vector's fingerprint and the compiled walk or
// the exact pass decides.
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
