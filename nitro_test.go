package nitro_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"nitro"
)

// toy is a minimal tunable-function input for exercising the public facade.
type toy struct{ x float64 }

func buildToy(t testing.TB, policy nitro.TuningPolicy) *nitro.CodeVariant[toy] {
	t.Helper()
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[toy](cx, policy)
	cv.AddVariant("low", func(in toy) float64 { return 1 + in.x })
	cv.AddVariant("high", func(in toy) float64 { return 21 - in.x })
	if err := cv.SetDefault("low"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(nitro.Feature[toy]{
		Name: "x",
		Eval: func(in toy) float64 { return in.x },
		Cost: func(toy) float64 { return 1e-7 },
	})
	return cv
}

func toyInputs() []toy {
	var out []toy
	for x := 0.0; x <= 20; x++ {
		out = append(out, toy{x: x})
	}
	return out
}

// TestPublicAPIEndToEnd drives the whole facade: register, tune, persist,
// reload, adaptively dispatch.
func TestPublicAPIEndToEnd(t *testing.T) {
	cv := buildToy(t, nitro.DefaultPolicy("toy"))
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{Classifier: "svm", GridSearch: true})
	rep, err := tuner.Tune(toyInputs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainAccuracy < 0.9 {
		t.Errorf("training accuracy %v", rep.TrainAccuracy)
	}
	if _, chosen, _ := cv.Call(toy{x: 2}); chosen != "low" {
		t.Errorf("x=2 chose %q", chosen)
	}
	if _, chosen, _ := cv.Call(toy{x: 18}); chosen != "high" {
		t.Errorf("x=18 chose %q", chosen)
	}

	path := filepath.Join(t.TempDir(), "toy.json")
	if err := cv.Context().SaveModel("toy", path); err != nil {
		t.Fatal(err)
	}
	cx2 := nitro.NewContext()
	if err := cx2.LoadModel("toy", path); err != nil {
		t.Fatal(err)
	}
	cv2 := nitro.NewCodeVariant[toy](cx2, nitro.DefaultPolicy("toy"))
	cv2.AddVariant("low", func(in toy) float64 { return 1 + in.x })
	cv2.AddVariant("high", func(in toy) float64 { return 21 - in.x })
	_ = cv2.SetDefault("low")
	cv2.AddInputFeature(nitro.Feature[toy]{Name: "x", Eval: func(in toy) float64 { return in.x }})
	if _, chosen, _ := cv2.Call(toy{x: 18}); chosen != "high" {
		t.Errorf("reloaded model chose %q", chosen)
	}
}

// TestPublicAPIConstraints verifies deployment-time constraint fallback
// through the facade.
func TestPublicAPIConstraints(t *testing.T) {
	cv := buildToy(t, nitro.DefaultPolicy("toy"))
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}
	if err := cv.AddConstraint("high", func(in toy) bool { return in.x < 15 }); err != nil {
		t.Fatal(err)
	}
	if _, chosen, _ := cv.Call(toy{x: 19}); chosen != "low" {
		t.Errorf("constraint should force fallback, chose %q", chosen)
	}
	stats := cv.Context().Stats("toy")
	if stats.DefaultFallbacks == 0 {
		t.Error("fallback not recorded")
	}
}

// TestPublicAPIAsyncFeatureEval exercises the FixInputs path.
func TestPublicAPIAsyncFeatureEval(t *testing.T) {
	p := nitro.DefaultPolicy("toy")
	p.AsyncFeatureEval = true
	p.ParallelFeatureEval = true
	cv := buildToy(t, p)
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}
	f := cv.FixInputs(toy{x: 18})
	if _, chosen, err := f.Call(); err != nil || chosen != "high" {
		t.Errorf("async call: %q %v", chosen, err)
	}
	// The future API also works through CallFixed, and handles are
	// single-shot.
	f2 := cv.FixInputs(toy{x: 2})
	if _, chosen, err := cv.CallFixed(f2); err != nil || chosen != "low" {
		t.Errorf("async call 2: %q %v", chosen, err)
	}
	if _, _, err := cv.CallFixed(f2); err == nil {
		t.Error("reusing a consumed Fixed handle should error")
	}
}

// TestPublicAPIConcurrentDispatch shares one tuned CodeVariant across
// goroutines: batched CallConcurrent, per-call futures and a mid-traffic
// model hot swap, with statistics that account for every call.
func TestPublicAPIConcurrentDispatch(t *testing.T) {
	cv := buildToy(t, nitro.DefaultPolicy("toy"))
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}
	batch := make([]toy, 64)
	for i := range batch {
		batch[i] = toy{x: float64(i % 21)}
	}
	results := cv.CallConcurrent(batch, 0)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("input %d: %v", i, r.Err)
		}
		want := "low"
		if batch[i].x > 10 {
			want = "high"
		}
		if r.Variant != want {
			t.Errorf("input %d (x=%v): chose %q, want %q", i, batch[i].x, r.Variant, want)
		}
	}
	// Hot-swap the model mid-traffic: reinstalling is just a SetModel.
	m, ok := cv.Context().Model("toy")
	if !ok {
		t.Fatal("tuned model missing")
	}
	cv.Context().SetModel("toy", m)
	if _, chosen, err := cv.Call(toy{x: 18}); err != nil || chosen != "high" {
		t.Errorf("post-swap call: %q %v", chosen, err)
	}
	if st := cv.Context().Stats("toy"); st.Calls != len(batch)+1 {
		t.Errorf("stats counted %d calls, want %d", st.Calls, len(batch)+1)
	}
}

// TestPublicAPIOnlineAdaptation drives the online adaptation loop through
// the facade: tune offline, flip the variant cost surfaces mid-traffic (a
// concept drift), and watch the engine detect it, retrain on its explored
// observations, and hot-swap a v2 model that restores correct selection.
func TestPublicAPIOnlineAdaptation(t *testing.T) {
	var drifted atomic.Bool
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[toy](cx, nitro.DefaultPolicy("adaptive-toy"))
	cv.AddVariant("low", func(in toy) float64 {
		if drifted.Load() {
			return 21 - in.x
		}
		return 1 + in.x
	})
	cv.AddVariant("high", func(in toy) float64 {
		if drifted.Load() {
			return 1 + in.x
		}
		return 21 - in.x
	})
	if err := cv.SetDefault("low"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(nitro.Feature[toy]{Name: "x", Eval: func(in toy) float64 { return in.x }})
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{Classifier: "svm", Seed: 1})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}

	pol := nitro.AdaptPolicy{
		SamplePeriod:      1,
		ExploreRate:       1,
		ReservoirSize:     128,
		Window:            10,
		MismatchThreshold: 0.5,
		RegretThreshold:   2.0,
		DriftWindows:      2,
		RecoveryWindows:   2,
		CooldownWindows:   2,
		MinRetrainSamples: 20,
		Retrain:           nitro.RetrainOptions{TrainOptions: nitro.TrainOptions{Classifier: "svm", Seed: 1}},
		Seed:              7,
		Synchronous:       true,
	}
	eng, err := nitro.EnableAdaptation(cv, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	serveCycle := func(n int) {
		ins := toyInputs()
		for i := 0; i < n; i++ {
			if _, _, err := cv.Call(ins[i%len(ins)]); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
	}
	serveCycle(30) // healthy windows
	if st := eng.Stats(); st.Drifts != 0 || st.State != "healthy" {
		t.Fatalf("healthy traffic triggered adaptation: %v", st)
	}
	drifted.Store(true)
	serveCycle(60) // detect, retrain, swap, recover

	st := eng.Stats()
	if st.Drifts != 1 || st.Retrains != 1 || st.Swaps != 1 || st.Rollbacks != 0 {
		t.Fatalf("drift loop: %v", st)
	}
	if st.ModelVersion != 2 {
		t.Errorf("installed model version = %d, want 2", st.ModelVersion)
	}
	// The swapped model must now select correctly on the drifted surfaces.
	if _, chosen, _ := cv.Call(toy{x: 2}); chosen != "high" {
		t.Errorf("post-swap x=2 chose %q, want high", chosen)
	}
	if _, chosen, _ := cv.Call(toy{x: 18}); chosen != "low" {
		t.Errorf("post-swap x=18 chose %q, want low", chosen)
	}

	// AdaptStats serializes to the stable snake_case wire form and round-trips.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"model_version":2`, `"state":"healthy"`, `"swaps":1`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("AdaptStats JSON missing %s: %s", key, raw)
		}
	}
	var back nitro.AdaptStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Errorf("AdaptStats round trip: %v != %v", back, st)
	}
	if !strings.Contains(st.String(), "state=healthy") {
		t.Errorf("AdaptStats.String() = %q", st.String())
	}
}

// Ablation benches: feature-evaluation modes (serial, parallel, async) on a
// live code variant with several features.
func benchFeatureMode(b *testing.B, parallel, async bool) {
	p := nitro.DefaultPolicy("toy")
	p.ParallelFeatureEval = parallel
	p.AsyncFeatureEval = async
	cv := buildToy(b, p)
	for i := 0; i < 4; i++ {
		cv.AddInputFeature(nitro.Feature[toy]{
			Name: "extra",
			Eval: func(in toy) float64 {
				s := 0.0
				for k := 0; k < 1000; k++ {
					s += in.x * float64(k)
				}
				return s
			},
		})
	}
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		b.Fatal(err)
	}
	in := toy{x: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if async {
			f := cv.FixInputs(in)
			if _, _, err := f.Call(); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, _, err := cv.Call(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFeatureEvalSerial(b *testing.B)   { benchFeatureMode(b, false, false) }
func BenchmarkAblationFeatureEvalParallel(b *testing.B) { benchFeatureMode(b, true, false) }
func BenchmarkAblationFeatureEvalAsync(b *testing.B)    { benchFeatureMode(b, true, true) }

// TestPublicAPIEnsemble exercises the committee classifier through the
// facade re-exports.
func TestPublicAPIEnsemble(t *testing.T) {
	cv := buildToy(t, nitro.DefaultPolicy("toy"))
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{Classifier: "ensemble", Seed: 7})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}
	if _, chosen, _ := cv.Call(toy{x: 2}); chosen != "low" {
		t.Errorf("x=2 chose %q", chosen)
	}
	if _, chosen, _ := cv.Call(toy{x: 18}); chosen != "high" {
		t.Errorf("x=18 chose %q", chosen)
	}
	model, ok := cv.Context().Model("toy")
	if !ok {
		t.Fatal("no model installed")
	}
	ens, ok := model.Classifier.(*nitro.Ensemble)
	if !ok {
		t.Fatalf("classifier is %T, want *nitro.Ensemble", model.Classifier)
	}
	if len(ens.Members()) != 4 {
		t.Errorf("committee has %d members, want 4", len(ens.Members()))
	}
	if c := model.Confidence([]float64{18}); c <= 0 || c > 1 {
		t.Errorf("calibrated confidence %v out of (0, 1]", c)
	}
}
