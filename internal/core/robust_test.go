package core

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nitro/internal/ml"
)

// --- panic isolation -------------------------------------------------------

func TestPanicIsolationFallsBack(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("panic"))
	cv.AddVariant("broken", func(in testInput) float64 { panic("kaboom") })
	cv.AddVariant("good", func(in testInput) float64 { return 2 })
	// Default is "broken": every call hits the panic first.
	v, name, err := cv.Call(testInput{X: 1})
	if err != nil {
		t.Fatalf("Call error: %v", err)
	}
	if name != "good" || v != 2 {
		t.Fatalf("got (%v, %q), want (2, good)", v, name)
	}
	st := cx.Stats("panic")
	if st.Panics != 1 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want Panics=1 Fallbacks=1", st)
	}
	if st.Calls != 1 || st.PerVariant["good"] != 1 {
		t.Fatalf("stats = %+v, want 1 successful call on good", st)
	}
}

func TestAllVariantsPanicYieldsTypedError(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("allpanic"))
	cv.AddVariant("a", func(in testInput) float64 { panic("a down") })
	cv.AddVariant("b", func(in testInput) float64 { panic("b down") })
	_, _, err := cv.Call(testInput{X: 1})
	var ve *VariantError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VariantError, got %T: %v", err, err)
	}
	if !ve.Panicked {
		t.Fatalf("want Panicked=true, got %+v", ve)
	}
	st := cx.Stats("allpanic")
	if st.Panics != 2 || st.Calls != 0 {
		t.Fatalf("stats = %+v, want Panics=2 Calls=0", st)
	}
}

func TestAbortSurfacesCause(t *testing.T) {
	sentinel := errors.New("cannot handle this input")
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("abort"))
	cv.AddVariant("picky", func(in testInput) float64 { Abort(sentinel); return 0 })
	_, _, err := cv.Call(testInput{X: 1})
	var ve *VariantError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VariantError, got %T: %v", err, err)
	}
	if ve.Panicked {
		t.Fatalf("Abort must not count as a panic: %+v", ve)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is through the envelope failed: %v", err)
	}
	if st := cx.Stats("abort"); st.Panics != 0 {
		t.Fatalf("Abort must not bump Panics: %+v", st)
	}
}

// --- deadlines & cancellation ---------------------------------------------

func TestVariantTimeoutFallsBack(t *testing.T) {
	p := DefaultPolicy("timeout")
	p.VariantTimeout = 5 * time.Millisecond
	cx := NewContext()
	cv := New[testInput](cx, p)
	cv.AddVariant("hung", func(in testInput) float64 { time.Sleep(200 * time.Millisecond); return 1 })
	cv.AddVariant("fast", func(in testInput) float64 { return 2 })
	v, name, err := cv.Call(testInput{X: 1})
	if err != nil || name != "fast" || v != 2 {
		t.Fatalf("got (%v, %q, %v), want (2, fast, nil)", v, name, err)
	}
	st := cx.Stats("timeout")
	if st.Timeouts != 1 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want Timeouts=1 Fallbacks=1", st)
	}
}

func TestVariantTimeoutTypedError(t *testing.T) {
	p := DefaultPolicy("timeout2")
	p.VariantTimeout = 5 * time.Millisecond
	cv := New[testInput](NewContext(), p)
	cv.AddVariant("hung", func(in testInput) float64 { time.Sleep(200 * time.Millisecond); return 1 })
	_, _, err := cv.Call(testInput{X: 1})
	if !errors.Is(err, ErrVariantTimeout) {
		t.Fatalf("want ErrVariantTimeout, got %v", err)
	}
	var ve *VariantError
	if !errors.As(err, &ve) || ve.Variant != "hung" {
		t.Fatalf("want VariantError{Variant: hung}, got %v", err)
	}
}

func TestCallCtxCancelledBeforeDispatch(t *testing.T) {
	cv := newCV(t, DefaultPolicy("cancel"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := cv.CallCtx(ctx, testInput{X: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st := cv.Context().Stats("cancel"); st.Calls != 0 {
		t.Fatalf("cancelled call must not record: %+v", st)
	}
}

func TestCallCtxCancelledMidVariant(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("midcancel"))
	started := make(chan struct{})
	block := make(chan struct{})
	cv.AddVariant("blocking", func(in testInput) float64 { close(started); <-block; return 1 })
	cv.AddVariant("other", func(in testInput) float64 { return 2 })
	defer close(block)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	_, _, err := cv.CallCtx(ctx, testInput{X: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var ve *VariantError
	if errors.As(err, &ve) {
		t.Fatalf("cancellation must not be a VariantError: %v", err)
	}
	// Cancellation is the caller's choice: no fallback, no failure counters.
	st := cx.Stats("midcancel")
	if st.Fallbacks != 0 || st.Panics != 0 || st.Timeouts != 0 {
		t.Fatalf("cancellation charged failure counters: %+v", st)
	}
}

// --- failure-aware fallback chain -----------------------------------------

// threeCV builds a three-variant function with a trained 3-class model:
// label 0 for x<3, 1 for 3<=x<6, 2 for x>=6. Default is v0.
func threeCV(t *testing.T, name string, fns map[int]VariantFn[testInput]) (*CodeVariant[testInput], *ml.Model) {
	t.Helper()
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy(name))
	for i, vn := range []string{"v0", "v1", "v2"} {
		fn := fns[i]
		if fn == nil {
			val := float64(i)
			fn = func(in testInput) float64 { return val }
		}
		cv.AddVariant(vn, fn)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})
	ds := &ml.Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		switch {
		case x >= 6:
			label = 2
		case x >= 3:
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
	model := &ml.Model{Classifier: svm, Scaler: scaler}
	if err := cx.SetModel(name, model); err != nil {
		t.Fatal(err)
	}
	return cv, model
}

func TestFallbackPrefersNextRankedOverDefault(t *testing.T) {
	in := testInput{X: 7} // predicted class 2; nearest alternative by score is 1
	cv, model := threeCV(t, "ranked", map[int]VariantFn[testInput]{
		2: func(testInput) float64 { panic("v2 down") },
	})
	ranked := model.RankedClasses([]float64{in.X})
	if ranked[0] != 2 {
		t.Fatalf("precondition: model should predict 2 for x=7, ranked %v", ranked)
	}
	if ranked[1] != 1 {
		t.Fatalf("precondition: next-ranked should be 1 (not the default 0), ranked %v", ranked)
	}
	v, name, err := cv.Call(in)
	if err != nil {
		t.Fatalf("Call error: %v", err)
	}
	if name != "v1" || v != 1 {
		t.Fatalf("fallback chose (%v, %q), want the next-ranked (1, v1), ranked %v", v, name, ranked)
	}
}

func TestRankedClassesHeadMatchesPredict(t *testing.T) {
	_, model := threeCV(t, "rankhead", nil)
	for x := 0.0; x <= 9; x += 0.5 {
		ranked := model.RankedClasses([]float64{x})
		if len(ranked) != 3 {
			t.Fatalf("x=%v: ranked %v, want 3 classes", x, ranked)
		}
		if pred := model.Predict([]float64{x}); ranked[0] != pred {
			t.Fatalf("x=%v: ranked[0]=%d != Predict=%d", x, ranked[0], pred)
		}
	}
}

func TestFallbackRespectsConstraints(t *testing.T) {
	cv, _ := threeCV(t, "fbcons", map[int]VariantFn[testInput]{
		2: func(testInput) float64 { panic("v2 down") },
	})
	// Veto v1 so the chain must skip the next-ranked candidate and land on v0.
	if err := cv.AddConstraint("v1", func(testInput) bool { return false }); err != nil {
		t.Fatal(err)
	}
	v, name, err := cv.Call(testInput{X: 7})
	if err != nil {
		t.Fatalf("Call error: %v", err)
	}
	if name != "v0" || v != 0 {
		t.Fatalf("got (%v, %q), want the default (0, v0)", v, name)
	}
}

// --- quarantine circuit breaker -------------------------------------------

func TestQuarantineTripsAndRecovers(t *testing.T) {
	p := DefaultPolicy("quarantine")
	p.Quarantine = QuarantinePolicy{Threshold: 3, Window: time.Minute, Cooldown: 20 * time.Millisecond}
	cx := NewContext()
	cv := New[testInput](cx, p)
	var failing atomic.Bool
	failing.Store(true)
	cv.AddVariant("flaky", func(in testInput) float64 {
		if failing.Load() {
			panic("flaky down")
		}
		return 1
	})
	cv.AddVariant("steady", func(in testInput) float64 { return 2 })
	// Default is flaky: selection prefers it until the breaker opens.
	for i := 0; i < 3; i++ {
		if _, name, err := cv.Call(testInput{X: 1}); err != nil || name != "steady" {
			t.Fatalf("call %d: got (%q, %v), want steady via fallback", i, name, err)
		}
	}
	st := cx.Stats("quarantine")
	if st.Quarantined != 1 {
		t.Fatalf("after 3 failures stats = %+v, want Quarantined=1", st)
	}
	if st.Panics != 3 {
		t.Fatalf("stats = %+v, want Panics=3", st)
	}
	// While quarantined, selection skips flaky entirely: no new panics.
	if _, name, err := cv.Call(testInput{X: 1}); err != nil || name != "steady" {
		t.Fatalf("quarantined call: got (%q, %v), want steady", name, err)
	}
	if st = cx.Stats("quarantine"); st.Panics != 3 {
		t.Fatalf("quarantined variant still executed: %+v", st)
	}
	// Heal the variant, wait out the cooldown, and watch the half-open probe
	// readmit it.
	failing.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		_, name, err := cv.Call(testInput{X: 1})
		if err != nil {
			t.Fatalf("recovery call error: %v", err)
		}
		if name == "flaky" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("variant never recovered from quarantine")
	}
	if st = cx.Stats("quarantine"); st.Recoveries < 1 {
		t.Fatalf("stats = %+v, want Recoveries >= 1", st)
	}
}

func TestQuarantineDisabledByDefault(t *testing.T) {
	cv := newCV(t, DefaultPolicy("noq"))
	if cv.Policy().Quarantine.Enabled() {
		t.Fatal("zero-value policy must not quarantine")
	}
}

// --- fault-injection harness ----------------------------------------------

func TestWrapFaultSeededDeterminism(t *testing.T) {
	cfg := FaultConfig{PanicRate: 0.3, ErrorRate: 0.2, DelayRate: 0, Seed: 42}
	outcomes := func() []string {
		fn := WrapFault(func(in testInput) float64 { return 1 }, cfg)
		var out []string
		for i := 0; i < 50; i++ {
			out = append(out, func() (res string) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(variantAbort); ok {
							res = "abort"
						} else {
							res = "panic"
						}
					}
				}()
				fn(testInput{})
				return "ok"
			}())
		}
		return out
	}
	a, b := outcomes(), outcomes()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault sequences:\n%v\n%v", a, b)
	}
	counts := map[string]int{}
	for _, o := range a {
		counts[o]++
	}
	if counts["panic"] == 0 || counts["abort"] == 0 || counts["ok"] == 0 {
		t.Fatalf("expected a mix of outcomes, got %v", counts)
	}
}

// TestStressFaultInjection is the acceptance stress test: one variant with a
// 15% panic rate and a 10% hang rate (30ms sleeps against a 5ms deadline)
// serves concurrent traffic under -race. Every call must resolve via the
// fallback chain or a typed error, the faulty variant must observably
// quarantine, and after the faults stop it must recover.
func TestStressFaultInjection(t *testing.T) {
	p := DefaultPolicy("stress")
	p.VariantTimeout = 5 * time.Millisecond
	p.Quarantine = QuarantinePolicy{Threshold: 5, Window: time.Second, Cooldown: 20 * time.Millisecond}
	cx := NewContext()
	cv := New[testInput](cx, p)
	var faultsOn atomic.Bool
	faultsOn.Store(true)
	base := func(in testInput) float64 { return 1 }
	faulty := WrapFault(base, FaultConfig{PanicRate: 0.15, DelayRate: 0.10, Delay: 30 * time.Millisecond, Seed: 7})
	cv.AddVariant("faulty", func(in testInput) float64 {
		if faultsOn.Load() {
			return faulty(in)
		}
		return base(in)
	})
	cv.AddVariant("healthy", func(in testInput) float64 { return 2 })
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, _, err := cv.CallCtx(context.Background(), testInput{X: float64(i % 10)})
				if err != nil {
					var ve *VariantError
					if !errors.As(err, &ve) && !errors.Is(err, ErrAllVariantsVetoed) {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("untyped error escaped the dispatch layer: %v", err)
	}
	st := cx.Stats("stress")
	if st.Panics == 0 {
		t.Fatalf("stats = %+v, want injected panics", st)
	}
	if st.Timeouts == 0 {
		t.Fatalf("stats = %+v, want injected timeouts", st)
	}
	if st.Quarantined < 1 {
		t.Fatalf("stats = %+v, want the faulty variant quarantined at least once", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("stats = %+v, want failure fallback hops", st)
	}

	// Phase 2: stop injecting, wait out the cooldown, and verify recovery.
	faultsOn.Store(false)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		if _, _, err := cv.Call(testInput{X: 1}); err != nil {
			t.Fatalf("post-fault call error: %v", err)
		}
		if cx.Stats("stress").Recoveries >= 1 {
			break
		}
	}
	st = cx.Stats("stress")
	if st.Recoveries < 1 {
		t.Fatalf("stats = %+v, want the faulty variant to recover after faults stop", st)
	}
}

// --- determinism -----------------------------------------------------------

// statsEquivalent compares two CallStats snapshots: integer counters and the
// per-variant map must match exactly; the float sums (TotalValue,
// FeatureSeconds) are compared with a tiny relative tolerance because the
// random shard assignment makes their accumulation order run-dependent (a
// property of any two runs, not of the Ctx entry points).
func statsEquivalent(a, b CallStats) bool {
	approx := func(x, y float64) bool {
		if x == y {
			return true
		}
		d := math.Abs(x - y)
		return d <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Calls == b.Calls && a.DefaultFallbacks == b.DefaultFallbacks &&
		a.Panics == b.Panics && a.Timeouts == b.Timeouts && a.Fallbacks == b.Fallbacks &&
		a.Quarantined == b.Quarantined && a.Recoveries == b.Recoveries &&
		reflect.DeepEqual(a.PerVariant, b.PerVariant) &&
		approx(a.TotalValue, b.TotalValue) && approx(a.FeatureSeconds, b.FeatureSeconds)
}

func TestCallCtxMatchesCall(t *testing.T) {
	mk := func() *CodeVariant[testInput] {
		cv := newCV(t, DefaultPolicy("det-ctx"))
		trainToy(t, cv)
		return cv
	}
	a, b := mk(), mk()
	for x := 0.0; x <= 9; x += 0.25 {
		va, na, ea := a.Call(testInput{X: x})
		vb, nb, eb := b.CallCtx(context.Background(), testInput{X: x})
		if va != vb || na != nb || !errors.Is(ea, eb) && (ea != nil || eb != nil) {
			t.Fatalf("x=%v: Call (%v,%q,%v) != CallCtx (%v,%q,%v)", x, va, na, ea, vb, nb, eb)
		}
	}
	sa, sb := a.Context().Stats("det-ctx"), b.Context().Stats("det-ctx")
	if !statsEquivalent(sa, sb) {
		t.Fatalf("stats diverged:\nCall:    %+v\nCallCtx: %+v", sa, sb)
	}
}

func TestCallConcurrentCtxMatchesCallConcurrent(t *testing.T) {
	mk := func() *CodeVariant[testInput] {
		cv := newCV(t, DefaultPolicy("det-cc"))
		trainToy(t, cv)
		return cv
	}
	var batch []testInput
	for x := 0.0; x <= 9; x += 0.25 {
		batch = append(batch, testInput{X: x})
	}
	a, b := mk(), mk()
	ra := a.CallConcurrent(batch, 4)
	rb := b.CallConcurrentCtx(context.Background(), batch, 4)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("CallConcurrent and CallConcurrentCtx results diverged")
	}
	sa, sb := a.Context().Stats("det-cc"), b.Context().Stats("det-cc")
	if !statsEquivalent(sa, sb) {
		t.Fatalf("stats diverged:\n%+v\n%+v", sa, sb)
	}
}

func TestCallConcurrentCtxCancellation(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("cc-cancel"))
	cv.AddVariant("slow", func(in testInput) float64 { time.Sleep(2 * time.Millisecond); return 1 })
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	ins := make([]testInput, 5000)
	results := cv.CallConcurrentCtx(ctx, ins, 2)
	cancelled := 0
	for _, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("unexpected error: %v", r.Err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("cancellation did not stop the batch")
	}
}

// --- exhaustive search fault tolerance ------------------------------------

func TestExhaustiveSearchPanicScoresInfeasible(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("exh"))
	cv.AddVariant("broken", func(in testInput) float64 { panic("down") })
	cv.AddVariant("ok", func(in testInput) float64 { return 3 })
	values, best := cv.ExhaustiveSearch(testInput{X: 1})
	if !math.IsInf(values[0], 1) {
		t.Fatalf("panicking variant scored %v, want +Inf", values[0])
	}
	if best != 1 || values[1] != 3 {
		t.Fatalf("got best=%d values=%v, want best=1", best, values)
	}
}

func TestExhaustiveSearchCtxCancelled(t *testing.T) {
	cv := New[testInput](NewContext(), DefaultPolicy("exh-cancel"))
	cv.AddVariant("a", func(in testInput) float64 { return 1 })
	cv.AddVariant("b", func(in testInput) float64 { return 2 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	values, best := cv.ExhaustiveSearchCtx(ctx, testInput{X: 1})
	if best != -1 {
		t.Fatalf("cancelled search picked %d (%v), want -1", best, values)
	}
}

// --- model validation ------------------------------------------------------

func TestSetModelRejectsWrongFeatureDim(t *testing.T) {
	cv := newCV(t, DefaultPolicy("shape1")) // 1 feature, 2 variants
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: []int{0, 0, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	err = cv.Context().SetModel("shape1", &ml.Model{Classifier: svm, Scaler: scaler})
	if !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("want ErrModelMismatch for 2-feature model on 1-feature function, got %v", err)
	}
	if _, ok := cv.Context().Model("shape1"); ok {
		t.Fatal("rejected model must not be installed")
	}
}

func TestSetModelRejectsOutOfRangeClasses(t *testing.T) {
	cv := newCV(t, DefaultPolicy("shape2")) // 2 variants: labels 0..1
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform([][]float64{{0}, {1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: []int{0, 0, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	err = cv.Context().SetModel("shape2", &ml.Model{Classifier: svm, Scaler: scaler})
	if !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("want ErrModelMismatch for class label 5 on a 2-variant function, got %v", err)
	}
}

func TestLoadModelRejectsMismatch(t *testing.T) {
	// Save a 2-feature model, then try to load it for a 1-feature function.
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: []int{0, 0, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	data, err := ml.MarshalModel(&ml.Model{Classifier: svm, Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cv := newCV(t, DefaultPolicy("shape3"))
	err = cv.Context().LoadModel("shape3", path)
	if !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("want ErrModelMismatch from LoadModel, got %v", err)
	}
}

// A compiled artifact whose class labels name no registered variant must be
// rejected by every install path, like an out-of-range classifier label:
// installed, it would answer calls with a label dispatch cannot serve and
// route them to the default variant.
func TestInstallRejectsOutOfRangeCompiledClasses(t *testing.T) {
	cv, model := buildConcurrentCV(t, DefaultPolicy("shape4")) // 2 variants: labels 0..1
	cx := cv.Context()
	bad := *model
	bad.Compiled = &ml.Compiled{
		Nodes:   []ml.CompiledNode{{Left: -1, Right: -1, Class: 0}},
		Classes: []int{9},
		Dim:     1,
	}
	if err := bad.Compiled.Validate(); err != nil {
		t.Fatalf("artifact should be structurally valid: %v", err)
	}
	if err := cx.SetModel("shape4", &bad); !errors.Is(err, ErrModelMismatch) {
		t.Errorf("SetModel: want ErrModelMismatch for compiled label 9 on a 2-variant function, got %v", err)
	}
	if err := cx.SetCanary("shape4", &bad, 1); !errors.Is(err, ErrModelMismatch) {
		t.Errorf("SetCanary: want ErrModelMismatch for compiled label 9, got %v", err)
	}
	data, err := ml.MarshalModel(&bad)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cx.LoadModel("shape4", path); !errors.Is(err, ErrModelMismatch) {
		t.Errorf("LoadModel: want ErrModelMismatch for compiled label 9, got %v", err)
	}
	// The model installed before the rejections keeps serving its own pick.
	if _, name, err := cv.Call(testInput{X: 7}); err != nil || name != "large" {
		t.Fatalf("Call(7) = (%q, %v), want large from the installed model", name, err)
	}
	if st := cx.Stats("shape4"); st.DefaultFallbacks != 0 || st.CompiledHits != 0 {
		t.Fatalf("rejected artifact served calls: %+v", st)
	}
}

func TestSetModelAcceptsUnknownShape(t *testing.T) {
	// No CodeVariant registered this function: nothing to validate against.
	cx := NewContext()
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: []int{0, 0, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := cx.SetModel("unseen", &ml.Model{Classifier: svm, Scaler: scaler}); err != nil {
		t.Fatalf("unknown shape must be accepted, got %v", err)
	}
}

// TestQuarantineHalfOpenSingleProbe: when a quarantined variant's cooldown
// elapses, exactly one of many concurrent callers is handed the half-open
// probe; everyone else keeps seeing the breaker open until the probe
// reports. A failed probe re-opens the quarantine and a later round hands
// out a fresh (single) probe that closes it.
func TestQuarantineHalfOpenSingleProbe(t *testing.T) {
	pol := QuarantinePolicy{Threshold: 1, Window: time.Second, Cooldown: time.Millisecond}.normalized()
	var b breaker

	if b.onFailure(brClosed, 0, pol); !b.open(time.Millisecond.Nanoseconds() - 1) {
		t.Fatal("breaker did not trip on threshold failure")
	}

	probeRound := func(now int64) brAcquire {
		t.Helper()
		const callers = 32
		var probes, opens atomic.Int64
		var probeAcq atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch acq := b.acquire(now); acq {
				case brProbe:
					probes.Add(1)
					probeAcq.Store(int64(acq))
				case brOpen:
					opens.Add(1)
				default:
					t.Errorf("half-open acquire returned %v", acq)
				}
			}()
		}
		wg.Wait()
		if got := probes.Load(); got != 1 {
			t.Fatalf("%d callers hold the half-open probe, want exactly 1", got)
		}
		if got := opens.Load(); got != int64(callers-1) {
			t.Fatalf("%d callers saw the breaker open, want %d", got, callers-1)
		}
		return brAcquire(probeAcq.Load())
	}

	// Round 1: cooldown elapsed, one probe wins — and its failure re-opens
	// the quarantine for a fresh cooldown.
	afterCooldown := pol.Cooldown.Nanoseconds() + 1
	acq := probeRound(afterCooldown)
	if !b.onFailure(acq, afterCooldown, pol) {
		t.Fatal("failed probe did not re-trip the quarantine")
	}
	if !b.open(afterCooldown + 1) {
		t.Fatal("breaker closed after a failed probe")
	}

	// Round 2: after the renewed cooldown a new single probe succeeds and
	// closes the breaker for everyone.
	later := afterCooldown + pol.Cooldown.Nanoseconds() + 1
	acq = probeRound(later)
	if !b.onSuccess(acq) {
		t.Fatal("successful probe did not report recovery")
	}
	if got := b.acquire(later + 1); got != brClosed {
		t.Fatalf("post-recovery acquire = %v, want brClosed", got)
	}
}
