package core

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"nitro/internal/ml"
)

// testInput is a toy tunable-function input: variant "small" is best below
// the threshold, "large" above.
type testInput struct{ X float64 }

func newCV(t *testing.T, policy TuningPolicy) *CodeVariant[testInput] {
	t.Helper()
	cx := NewContext()
	cv := New[testInput](cx, policy)
	cv.AddVariant("small", func(in testInput) float64 { return 1 + in.X })  // good for small X
	cv.AddVariant("large", func(in testInput) float64 { return 10 - in.X }) // good for large X
	cv.AddInputFeature(Feature[testInput]{
		Name: "x",
		Eval: func(in testInput) float64 { return in.X },
		Cost: func(in testInput) float64 { return 1e-6 },
	})
	if err := cv.SetDefault("small"); err != nil {
		t.Fatal(err)
	}
	return cv
}

// trainToy fits a tiny model mapping x<4.5 -> 0, else -> 1 and installs it.
func trainToy(t *testing.T, cv *CodeVariant[testInput]) {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		if x > 4.5 {
			label = 1
		}
		ds.Append([]float64{x}, label)
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
	cv.Context().SetModel(cv.Policy().Name, &ml.Model{Classifier: svm, Scaler: scaler})
}

func TestCallWithoutModelUsesDefault(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	v, name, err := cv.Call(testInput{X: 9})
	if err != nil {
		t.Fatal(err)
	}
	if name != "small" {
		t.Errorf("no-model call used %q, want default", name)
	}
	if v != 10 {
		t.Errorf("value = %v", v)
	}
	st := cv.Context().Stats("toy")
	if st.Calls != 1 || st.DefaultFallbacks != 1 || st.PerVariant["small"] != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestCallWithModelSelectsAdaptively(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	_, nameSmall, _ := cv.Call(testInput{X: 1})
	_, nameLarge, _ := cv.Call(testInput{X: 8})
	if nameSmall != "small" || nameLarge != "large" {
		t.Errorf("adaptive selection wrong: %q / %q", nameSmall, nameLarge)
	}
	st := cv.Context().Stats("toy")
	if st.Calls != 2 || st.DefaultFallbacks != 0 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.FeatureSeconds <= 0 {
		t.Errorf("feature cost not recorded: %+v", st)
	}
}

func TestConstraintFallsBackToDefault(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	// Veto "large" everywhere: predictions of label 1 must fall back.
	if err := cv.AddConstraint("large", func(testInput) bool { return false }); err != nil {
		t.Fatal(err)
	}
	_, name, _ := cv.Call(testInput{X: 8})
	if name != "small" {
		t.Errorf("vetoed prediction executed %q, want default", name)
	}
	if st := cv.Context().Stats("toy"); st.DefaultFallbacks != 1 {
		t.Errorf("fallback not recorded: %+v", st)
	}
}

func TestConstraintsDisabledByPolicy(t *testing.T) {
	p := DefaultPolicy("toy")
	p.ConstraintsEnabled = false
	cv := newCV(t, p)
	trainToy(t, cv)
	_ = cv.AddConstraint("large", func(testInput) bool { return false })
	_, name, _ := cv.Call(testInput{X: 8})
	if name != "large" {
		t.Errorf("disabled constraints should not veto: got %q", name)
	}
}

func TestExhaustiveSearch(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	vals, best := cv.ExhaustiveSearch(testInput{X: 8})
	if best != 1 {
		t.Errorf("best = %d, want 1", best)
	}
	if vals[0] != 9 || vals[1] != 2 {
		t.Errorf("values = %v", vals)
	}
	_ = cv.AddConstraint("large", func(testInput) bool { return false })
	vals, best = cv.ExhaustiveSearch(testInput{X: 8})
	if best != 0 || !math.IsInf(vals[1], 1) {
		t.Errorf("vetoed variant should score +Inf: %v best %d", vals, best)
	}
	_ = cv.AddConstraint("small", func(testInput) bool { return false })
	_, best = cv.ExhaustiveSearch(testInput{X: 8})
	if best != -1 {
		t.Errorf("all-vetoed best = %d, want -1", best)
	}
}

// FeatureVector evaluates every feature through the per-feature code Call
// uses and returns the summed modelled cost.
func TestFeatureVector(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	cv.AddInputFeature(Feature[testInput]{
		Name: "x2",
		Eval: func(in testInput) float64 { return in.X * in.X },
		Cost: func(testInput) float64 { return 3e-6 },
	})
	vec, cost := cv.FeatureVector(testInput{X: 3})
	if len(vec) != 2 || vec[0] != 3 || vec[1] != 9 {
		t.Errorf("features wrong: %v", vec)
	}
	if math.Abs(cost-4e-6) > 1e-12 {
		t.Errorf("cost = %v, want the sum 4e-6", cost)
	}
}

func TestAsyncFeatureEval(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	f := cv.FixInputs(testInput{X: 8})
	_, name, err := cv.CallFixed(f)
	if err != nil {
		t.Fatal(err)
	}
	if name != "large" {
		t.Errorf("async call selected %q", name)
	}
	// Prefetched feature cost is hidden (recorded as 0).
	if st := cv.Context().Stats("toy"); st.FeatureSeconds != 0 {
		t.Errorf("async feature cost should be hidden: %+v", st)
	}
	// A plain Call needs no handle and evaluates synchronously.
	_, name, _ = cv.Call(testInput{X: 1})
	if name != "small" {
		t.Errorf("post-async call selected %q", name)
	}
}

// FixInputs returns while its prefetch is still evaluating, the prefetch
// evaluates only the feature the stable program reads, CallFixed charges
// nothing for it, and a feature a model swapped in since FixInputs reads is
// evaluated on the caller and charged its Cost.
func TestFixInputsPrefetchesInBackground(t *testing.T) {
	cv, evals, costs := countingCV(t, "prefetch")
	if err := cv.Context().SetModel("prefetch", depthOneModel(t)); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	eval3 := cv.features[3].Eval
	cv.features[3].Eval = func(in testInput) float64 { <-gate; return eval3(in) }
	fixed := make(chan *Fixed[testInput], 1)
	go func() { fixed <- cv.FixInputs(testInput{X: 2}) }()
	var h *Fixed[testInput]
	select {
	case h = <-fixed:
	case <-time.After(10 * time.Second):
		t.Fatal("FixInputs waited for a feature evaluation")
	}
	select {
	case <-h.done:
		t.Fatal("the prefetch finished while its feature was still blocked")
	default:
	}
	close(gate)
	if _, name, err := h.Call(); err != nil || name != "small" {
		t.Fatalf("CallFixed: (%q, %v), want small", name, err)
	}
	if want := [5]int{3: 1}; *evals != want || *costs != want {
		t.Fatalf("Eval runs %v, Cost runs %v; want only the program's feature 3, once: %v", *evals, *costs, want)
	}
	if st := cv.Context().Stats("prefetch"); st.FeatureSeconds != 0 || st.CompiledHits != 1 {
		t.Fatalf("%+v: want one compiled hit charging nothing", st)
	}

	// A program on feature 1 (raw X+1, the same boundary) installed after
	// the prefetch: CallFixed evaluates feature 1 and charges its cost 2.
	h = cv.FixInputs(testInput{X: 7})
	<-h.done
	swapped := depthOneModel(t)
	swapped.Compiled.Nodes[0].Feature = 1
	if err := cv.Context().SetModel("prefetch", swapped); err != nil {
		t.Fatal(err)
	}
	if _, name, err := h.Call(); err != nil || name != "large" {
		t.Fatalf("CallFixed after SetModel: (%q, %v), want large", name, err)
	}
	if want := [5]int{1: 1, 3: 2}; *evals != want || *costs != want {
		t.Fatalf("Eval runs %v, Cost runs %v; want %v", *evals, *costs, want)
	}
	if st := cv.Context().Stats("prefetch"); st.FeatureSeconds != 2 || st.CompiledHits != 2 {
		t.Fatalf("%+v: want feature 1's cost 2 charged once", st)
	}
}

// A feature that panics in the prefetch panics CallFixed's caller with its
// value instead of the process.
func TestFixInputsFeaturePanicReachesCaller(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	cv.features[0].Eval = func(testInput) float64 { panic("feature down") }
	h := cv.FixInputs(testInput{X: 1})
	defer func() {
		if r := recover(); r != "feature down" {
			t.Fatalf("CallFixed recovered %v, want the feature's panic", r)
		}
	}()
	h.Call()
	t.Fatal("CallFixed returned after its prefetch panicked")
}

// TestCallFixedBindsFixedInput is the regression test for the async
// input-mismatch bug: the old API stored the pending future on the
// CodeVariant, so FixInputs(in1) followed by Call(in2) selected a variant
// from in1's features but checked constraints on — and executed — in2. The
// per-call handle binds the input, so features, constraints and execution
// must all see the fixed input.
func TestCallFixedBindsFixedInput(t *testing.T) {
	p := DefaultPolicy("toy")

	// "large" is allowed on the fixed input (X=8) but vetoed on small X.
	// With the shared-state bug, FixInputs(8) + Call(2) selected from X=8's
	// features but checked the constraint on — and executed — X=2, silently
	// falling back to the default on the wrong input. The handle pins
	// features, constraints and execution to X=8.
	var got testInput
	cv := New[testInput](NewContext(), p)
	cv.AddVariant("small", func(in testInput) float64 { got = in; return 1 + in.X })
	cv.AddVariant("large", func(in testInput) float64 { got = in; return 10 - in.X })
	if err := cv.SetDefault("small"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})
	trainToy(t, cv)
	if err := cv.AddConstraint("large", func(in testInput) bool { return in.X > 5 }); err != nil {
		t.Fatal(err)
	}

	f := cv.FixInputs(testInput{X: 8})
	_, name, err := cv.CallFixed(f)
	if err != nil {
		t.Fatal(err)
	}
	if name != "large" {
		t.Errorf("fixed call selected %q, want the model's pick for the fixed input", name)
	}
	if got.X != 8 {
		t.Errorf("variant executed on X=%v, want the fixed input X=8", got.X)
	}
	if st := cv.Context().Stats("toy"); st.DefaultFallbacks != 0 {
		t.Errorf("fixed call should not fall back: %+v", st)
	}
}

func TestFixedHandleSingleShot(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	f := cv.FixInputs(testInput{X: 1})
	if _, _, err := f.Call(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Call(); err == nil {
		t.Error("consuming a Fixed handle twice should error")
	}
	other := newCV(t, DefaultPolicy("toy"))
	if _, _, err := other.CallFixed(cv.FixInputs(testInput{X: 1})); err == nil {
		t.Error("CallFixed with a foreign handle should error")
	}
	if _, _, err := cv.CallFixed(nil); err == nil {
		t.Error("CallFixed(nil) should error")
	}
	if in := cv.FixInputs(testInput{X: 3}).Input(); in.X != 3 {
		t.Errorf("Input() = %+v", in)
	}
}

func TestErrorsAndAccessors(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("fn"))
	if _, _, err := cv.Call(testInput{}); err == nil {
		t.Error("Call with no variants should error")
	}
	if err := cv.SetDefault("nope"); err == nil {
		t.Error("SetDefault on unknown variant should not succeed")
	}
	if err := cv.AddConstraint("nope", func(testInput) bool { return true }); err == nil {
		t.Error("AddConstraint on unknown variant should not succeed")
	}
	cv.AddVariant("a", func(testInput) float64 { return 1 })
	cv.AddInputFeature(Feature[testInput]{Name: "f", Eval: func(testInput) float64 { return 0 }})
	if cv.NumVariants() != 1 || cv.VariantNames()[0] != "a" || cv.FeatureNames()[0] != "f" {
		t.Error("accessors wrong")
	}
	if cv.Context() != cx {
		t.Error("Context accessor wrong")
	}
	if New[testInput](nil, DefaultPolicy("x")).Context() == nil {
		t.Error("nil context should be replaced")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	path := filepath.Join(t.TempDir(), "toy.model.json")
	if err := cv.Context().SaveModel("toy", path); err != nil {
		t.Fatal(err)
	}
	cx2 := NewContext()
	if err := cx2.LoadModel("toy", path); err != nil {
		t.Fatal(err)
	}
	m1, _ := cv.Context().Model("toy")
	m2, _ := cx2.Model("toy")
	for x := 0.0; x < 10; x += 0.5 {
		if m1.Predict([]float64{x}) != m2.Predict([]float64{x}) {
			t.Fatalf("reloaded model disagrees at x=%v", x)
		}
	}
	if err := cv.Context().SaveModel("absent", path); err == nil {
		t.Error("saving a missing model should error")
	}
	if err := cx2.LoadModel("toy", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestStatsIsolatedCopy(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	_, _, _ = cv.Call(testInput{X: 1})
	st := cv.Context().Stats("toy")
	st.PerVariant["small"] = 999
	if cv.Context().Stats("toy").PerVariant["small"] == 999 {
		t.Error("Stats returned shared state")
	}
	empty := cv.Context().Stats("unknown")
	if empty.Calls != 0 || empty.PerVariant == nil {
		t.Error("unknown-function stats should be empty but usable")
	}
}

// TestNonTimeCriterion exercises the paper's note that variants may return
// any minimized value (e.g. energy) instead of time: the selection machinery
// is agnostic to the criterion's meaning.
func TestNonTimeCriterion(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("energy"))
	// Joules consumed, not seconds: "eco" draws little for small inputs.
	cv.AddVariant("eco", func(in testInput) float64 { return 0.5 + 0.4*in.X })
	cv.AddVariant("burst", func(in testInput) float64 { return 3.0 })
	_ = cv.SetDefault("burst")
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})

	// Exhaustive search labels by lowest energy.
	_, best := cv.ExhaustiveSearch(testInput{X: 1})
	if best != 0 {
		t.Errorf("small input should label eco, got %d", best)
	}
	_, best = cv.ExhaustiveSearch(testInput{X: 9})
	if best != 1 {
		t.Errorf("large input should label burst, got %d", best)
	}
}

// Property: the selection engine never returns a constraint-violating
// variant — any prediction that fails its constraint lands on the default.
func TestQuickSelectionRespectsConstraints(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	// "large" is only legal below 7.
	if err := cv.AddConstraint("large", func(in testInput) bool { return in.X < 7 }); err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		x := float64(raw%1000) / 100 // [0, 10)
		in := testInput{X: x}
		vec, _ := cv.FeatureVector(in)
		idx, _, err := cv.SelectIndex(in, vec)
		if err != nil {
			return false
		}
		if idx == 1 && x >= 7 {
			return false // vetoed variant selected
		}
		return idx == 0 || idx == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSelectIndexSkipsVetoedDefault is the regression test for the vetoed-
// default bug: the selection engine fell back to the default variant without
// checking the default's own constraints, so a vetoed default could execute.
// The fallback chain must land on the first allowed variant instead.
func TestSelectIndexSkipsVetoedDefault(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	// Veto the model's pick for X=8 ("large") AND the default ("small"):
	// the engine must not execute the vetoed default.
	if err := cv.AddConstraint("large", func(testInput) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := cv.AddConstraint("small", func(in testInput) bool { return in.X < 5 }); err != nil {
		t.Fatal(err)
	}
	cv.AddVariant("rescue", func(in testInput) float64 { return 100 })

	in := testInput{X: 8} // "large" predicted, "large" and "small" vetoed
	vec, _ := cv.FeatureVector(in)
	idx, fallback, err := cv.SelectIndex(in, vec)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 || !fallback {
		t.Errorf("SelectIndex = (%d, %v), want the first allowed variant (2, true)", idx, fallback)
	}
	if _, name, err := cv.Call(in); err != nil || name != "rescue" {
		t.Errorf("Call with vetoed default executed %q (err %v), want rescue", name, err)
	}
}

func TestAllVariantsVetoedSurfacesError(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	for _, name := range cv.VariantNames() {
		if err := cv.AddConstraint(name, func(testInput) bool { return false }); err != nil {
			t.Fatal(err)
		}
	}
	in := testInput{X: 3}
	vec, _ := cv.FeatureVector(in)
	idx, _, err := cv.SelectIndex(in, vec)
	if !errors.Is(err, ErrAllVariantsVetoed) || idx != -1 {
		t.Errorf("SelectIndex = (%d, err %v), want (-1, ErrAllVariantsVetoed)", idx, err)
	}
	if _, _, err := cv.Call(in); !errors.Is(err, ErrAllVariantsVetoed) {
		t.Errorf("Call on an all-vetoed input returned err %v, want ErrAllVariantsVetoed", err)
	}
	// The failed call must not be recorded as executed.
	if st := cv.Context().Stats("toy"); st.Calls != 0 {
		t.Errorf("vetoed call recorded in stats: %+v", st)
	}
}

func TestCallConcurrentMatchesSerial(t *testing.T) {
	cv := newCV(t, DefaultPolicy("toy"))
	trainToy(t, cv)
	var ins []testInput
	for x := 0.0; x < 10; x += 0.25 {
		ins = append(ins, testInput{X: x})
	}
	serial := make([]CallResult, len(ins))
	ref := newCV(t, DefaultPolicy("toy"))
	trainToy(t, ref)
	for i, in := range ins {
		serial[i].Value, serial[i].Variant, serial[i].Err = ref.Call(in)
	}
	for _, workers := range []int{0, 1, 4} {
		got := cv.CallConcurrent(ins, workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Errorf("workers=%d input %d: got %+v want %+v", workers, i, got[i], serial[i])
			}
		}
	}
	st := cv.Context().Stats("toy")
	if st.Calls != 3*len(ins) {
		t.Errorf("stats counted %d calls, want %d", st.Calls, 3*len(ins))
	}
}
