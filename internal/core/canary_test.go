package core

// Canary-slot tests: fraction-gated challenger serving through the dispatch
// ladder, outcome accounting (selection fallback and variant failure count
// against the challenger), memo-cache isolation, and a -race stress mixing
// canary installs/clears with live traffic and stable hot-swaps.

import (
	"math"
	"slices"
	"sync"
	"testing"

	"nitro/internal/ml"
)

// TestCanaryFractionOneServesChallenger: with fraction 1 every call is
// served by the challenger; with fraction 0 none is.
func TestCanaryFractionOneServesChallenger(t *testing.T) {
	cv, _ := buildConcurrentCV(t, DefaultPolicy("canary"))
	cx := cv.Context()
	// Challenger predicts class 1 ("large") for everything; the stable model
	// picks "small" for X below the 4.5 boundary.
	if err := cx.SetCanary("canary", singleClassModel(t, 1), 1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_, name, err := cv.Call(testInput{X: 1})
		if err != nil || name != "large" {
			t.Fatalf("canary call %d: (%q, %v), want challenger pick large", i, name, err)
		}
	}
	st := cx.CanaryStats("canary")
	if !st.Active || st.Calls != 6 || st.Failures != 0 || st.Fraction != 1 {
		t.Fatalf("canary stats = %+v, want 6 clean calls at fraction 1", st)
	}

	cx.ClearCanary("canary")
	if _, name, err := cv.Call(testInput{X: 1}); err != nil || name != "small" {
		t.Fatalf("after ClearCanary: (%q, %v), want stable pick small", name, err)
	}
	if st := cx.CanaryStats("canary"); st.Active {
		t.Fatalf("stats still active after clear: %+v", st)
	}

	if err := cx.SetCanary("canary", singleClassModel(t, 1), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, name, _ := cv.Call(testInput{X: 1}); name != "small" {
			t.Fatalf("fraction-0 canary served traffic (call %d chose %q)", i, name)
		}
	}
	if st := cx.CanaryStats("canary"); st.Calls != 0 {
		t.Fatalf("fraction-0 canary recorded %d calls", st.Calls)
	}
}

// TestCanaryFailureAccounting: a challenger that picks a panicking variant
// has its calls counted as failures, while the runtime's fallback machinery
// still serves every call.
func TestCanaryFailureAccounting(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("boom"))
	cv.AddVariant("ok", func(in testInput) float64 { return 1 })
	cv.AddVariant("boom", func(in testInput) float64 { panic("injected") })
	if err := cv.SetDefault("ok"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})
	// Stable model picks "ok"; challenger picks the panicking variant.
	if err := cx.SetModel("boom", singleClassModel(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := cx.SetCanary("boom", singleClassModel(t, 1), 1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, name, err := cv.Call(testInput{X: float64(i)})
		if err != nil || name != "ok" {
			t.Fatalf("call %d: (%q, %v), want fallback to ok", i, name, err)
		}
	}
	st := cx.CanaryStats("boom")
	if st.Calls != 5 || st.Failures != 5 {
		t.Fatalf("canary stats = %+v, want 5/5 failures for a panicking challenger", st)
	}
}

// TestCanaryVetoCountsAsFailure: a challenger pick vetoed by constraints
// falls back and counts against the challenger.
func TestCanaryVetoCountsAsFailure(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("veto"))
	cv.AddVariant("ok", func(in testInput) float64 { return 1 })
	cv.AddVariant("never", func(in testInput) float64 { return 2 })
	if err := cv.SetDefault("ok"); err != nil {
		t.Fatal(err)
	}
	if err := cv.AddConstraint("never", func(testInput) bool { return false }); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})
	if err := cx.SetModel("veto", singleClassModel(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := cx.SetCanary("veto", singleClassModel(t, 1), 1.0); err != nil {
		t.Fatal(err)
	}
	if _, name, err := cv.Call(testInput{X: 2}); err != nil || name != "ok" {
		t.Fatalf("vetoed challenger pick: (%q, %v), want fallback ok", name, err)
	}
	st := cx.CanaryStats("veto")
	if st.Calls != 1 || st.Failures != 1 {
		t.Fatalf("canary stats = %+v, want the vetoed pick counted as a failure", st)
	}
}

// TestCanaryDoesNotPoisonMemo: challenger predictions must never enter the
// memo cache, and stable entries must survive a canary install/clear cycle
// (the stable model never changed).
func TestCanaryDoesNotPoisonMemo(t *testing.T) {
	cv, _ := buildConcurrentCV(t, DefaultPolicy("memo"))
	cx := cv.Context()
	in := testInput{X: 1}
	// Warm the memo with the stable model's prediction (admitted on the
	// second miss, hit on the third call).
	for i := 0; i < 3; i++ {
		if _, name, _ := cv.Call(in); name != "small" {
			t.Fatalf("warmup call chose %q", name)
		}
	}
	base := cx.Stats("memo")
	if base.MemoHits != 1 {
		t.Fatalf("warmup: %d memo hits, want 1", base.MemoHits)
	}
	// Serve the same input through a fraction-1 challenger: different pick,
	// no memo interaction.
	if err := cx.SetCanary("memo", singleClassModel(t, 1), 1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, name, _ := cv.Call(in); name != "large" {
			t.Fatalf("canary call chose %q", name)
		}
	}
	mid := cx.Stats("memo")
	if mid.MemoHits != base.MemoHits {
		t.Fatalf("canary-served calls hit the memo (%d -> %d)", base.MemoHits, mid.MemoHits)
	}
	// Clearing the canary must bring back the stable pick *from the memo*:
	// the cached entry survived because the stable model never changed.
	cx.ClearCanary("memo")
	if _, name, _ := cv.Call(in); name != "small" {
		t.Fatalf("post-clear call chose %q, want stable memoized small", name)
	}
	post := cx.Stats("memo")
	if post.MemoHits != mid.MemoHits+1 {
		t.Fatalf("stable memo entry did not survive the canary cycle (%d -> %d hits)", mid.MemoHits, post.MemoHits)
	}
}

// TestCanaryBatchedMatchesSerial: CallConcurrent with a fraction-1 canary
// serves every input with the challenger, exactly like serial calls.
func TestCanaryBatchedMatchesSerial(t *testing.T) {
	cv, _ := buildConcurrentCV(t, DefaultPolicy("batch"))
	cx := cv.Context()
	if err := cx.SetCanary("batch", singleClassModel(t, 1), 1.0); err != nil {
		t.Fatal(err)
	}
	ins := make([]testInput, 16)
	for i := range ins {
		ins[i] = testInput{X: float64(i % 4)}
	}
	for _, r := range cv.CallConcurrent(ins, 4) {
		if r.Err != nil || r.Variant != "large" {
			t.Fatalf("batched canary result: (%q, %v), want large", r.Variant, r.Err)
		}
	}
	st := cx.CanaryStats("batch")
	if st.Calls != int64(len(ins)) || st.Failures != 0 {
		t.Fatalf("canary stats = %+v, want %d clean calls", st, len(ins))
	}
}

// TestSetCanaryValidates: canary installs run the same structural validation
// as SetModel.
func TestSetCanaryValidates(t *testing.T) {
	cv, _ := buildConcurrentCV(t, DefaultPolicy("val"))
	cx := cv.Context()
	if err := cx.SetCanary("val", nil, 0.5); err == nil {
		t.Fatal("nil challenger accepted")
	}
	// A model whose class labels exceed the registered variant count must be
	// rejected (same check as SetModel).
	if err := cx.SetCanary("val", singleClassModel(t, 7), 0.5); err == nil {
		t.Fatal("out-of-range challenger accepted")
	}
	if st := cx.CanaryStats("val"); st.Active {
		t.Fatalf("rejected install left a canary behind: %+v", st)
	}
	// Fractions clamp to [0, 1].
	if err := cx.SetCanary("val", singleClassModel(t, 1), 7); err != nil {
		t.Fatal(err)
	}
	if st := cx.CanaryStats("val"); st.Fraction != 1 {
		t.Fatalf("fraction not clamped: %+v", st)
	}
	if err := cx.SetCanary("val", singleClassModel(t, 1), math.Inf(-1)); err != nil {
		t.Fatal(err)
	}
	if st := cx.CanaryStats("val"); st.Fraction != 0 {
		t.Fatalf("negative fraction not clamped: %+v", st)
	}
	_ = cv
}

// TestCanarySwapStress exercises canary install/clear and stable hot-swap
// under concurrent traffic; -race polices publication, the assertions police
// that every call still succeeds and picks a registered variant.
func TestCanarySwapStress(t *testing.T) {
	cv, model := buildConcurrentCV(t, DefaultPolicy("cstress"))
	cx := cv.Context()
	challenger := singleClassModel(t, 1)

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case g == 0 && i%3 == 0:
					if err := cx.SetCanary("cstress", challenger, 0.5); err != nil {
						t.Error(err)
					}
				case g == 0 && i%3 == 1:
					cx.ClearCanary("cstress")
				case g == 1 && i%5 == 0:
					if err := cx.SetModel("cstress", model); err != nil {
						t.Error(err)
					}
				default:
					_, name, err := cv.Call(testInput{X: float64(i % 9)})
					if err != nil {
						t.Errorf("call: %v", err)
					} else if name != "small" && name != "large" {
						t.Errorf("call chose unregistered variant %q", name)
					}
					cx.CanaryStats("cstress")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCanaryAdmissionRepeats: the canary split is a function of the call
// count, so two fresh contexts given the same challenger and the same
// serial calls serve the same calls with it, record equal CanaryStats and
// leave the same memo traffic; over 10,000 calls the challenger's share
// lies within 0.3 ± 0.015.
func TestCanaryAdmissionRepeats(t *testing.T) {
	const calls = 10000
	run := func() ([]string, CanaryStats, CallStats) {
		cv, _ := buildConcurrentCV(t, DefaultPolicy("split"))
		cx := cv.Context()
		if err := cx.SetCanary("split", singleClassModel(t, 1), 0.3); err != nil {
			t.Fatal(err)
		}
		served := make([]string, calls)
		for i := range served {
			_, name, err := cv.Call(testInput{X: float64(i % 4)})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			served[i] = name
		}
		return served, cx.CanaryStats("split"), cx.Stats("split")
	}
	served1, canary1, stats1 := run()
	served2, canary2, stats2 := run()
	if canary1 != canary2 {
		t.Fatalf("canary stats differ between runs: %+v vs %+v", canary1, canary2)
	}
	for i := range served1 {
		if served1[i] != served2[i] {
			t.Fatalf("call %d served %q, then %q", i, served1[i], served2[i])
		}
	}
	if stats1.MemoHits != stats2.MemoHits || stats1.CompiledHits != stats2.CompiledHits || stats1.ExactFallbacks != stats2.ExactFallbacks {
		t.Fatalf("tier counts differ between runs: %+v vs %+v", stats1, stats2)
	}
	// Inputs below 4 make the stable model pick "small" and the challenger
	// "large", so the served names count the challenger's calls.
	large := 0
	for _, name := range served1 {
		if name == "large" {
			large++
		}
	}
	if int64(large) != canary1.Calls {
		t.Fatalf("%d calls served large, canary counted %d", large, canary1.Calls)
	}
	if share := float64(canary1.Calls) / calls; math.Abs(share-0.3) > 0.015 {
		t.Fatalf("challenger served %.4f of calls, want 0.3 ± 0.015", share)
	}
}

// rangeModel fits a one-feature 3-class model labelling x by label(x) on
// x = 0..9, as threeCV does.
func rangeModel(t *testing.T, label func(x float64) int) *ml.Model {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x <= 9; x++ {
		ds.Append([]float64{x}, label(x))
	}
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	return &ml.Model{Classifier: svm, Scaler: scaler}
}

// TestCanaryFallbackRanksWithChallenger: when the challenger served a call
// and its pick panics, the failure fallback walks the challenger's ranking,
// not the stable model's. Both models pick v2 at x=7; the stable model
// ranks v1 next and the challenger v0, and the default is v1, so only the
// challenger's ranking can run v0.
func TestCanaryFallbackRanksWithChallenger(t *testing.T) {
	cv, stable := threeCV(t, "canary-fb", map[int]VariantFn[testInput]{
		2: func(testInput) float64 { panic("v2 down") },
	})
	if err := cv.SetDefault("v1"); err != nil {
		t.Fatal(err)
	}
	challenger := rangeModel(t, func(x float64) int {
		switch {
		case x >= 6:
			return 2
		case x >= 3:
			return 0
		}
		return 1
	})
	x := []float64{7}
	if r := stable.RankedClasses(x); !slices.Equal(r, []int{2, 1, 0}) {
		t.Fatalf("precondition: stable ranking at x=7 is %v, want [2 1 0]", r)
	}
	if r := challenger.RankedClasses(x); !slices.Equal(r, []int{2, 0, 1}) {
		t.Fatalf("precondition: challenger ranking at x=7 is %v, want [2 0 1]", r)
	}
	cx := cv.Context()
	if err := cx.SetCanary("canary-fb", challenger, 1); err != nil {
		t.Fatal(err)
	}
	v, name, err := cv.Call(testInput{X: 7})
	if err != nil || name != "v0" || v != 0 {
		t.Fatalf("canary-served fallback ran (%v, %q, %v), want the challenger's next-ranked (0, v0)", v, name, err)
	}
	if st := cx.CanaryStats("canary-fb"); st.Calls != 1 || st.Failures != 1 {
		t.Fatalf("canary stats = %+v, want the panicking pick counted as a failure", st)
	}
	cx.ClearCanary("canary-fb")
	if _, name, err := cv.Call(testInput{X: 7}); err != nil || name != "v1" {
		t.Fatalf("stable-served fallback ran (%q, %v), want the stable model's next-ranked v1", name, err)
	}
}
