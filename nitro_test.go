package nitro_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"nitro"
	"nitro/internal/autotuner"
	"nitro/internal/core"
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
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
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
	cv := buildToy(t, nitro.DefaultPolicy("toy"))
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
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{Seed: 1})
	if _, err := tuner.Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}

	pol := nitro.AdaptPolicy{
		SamplePeriod:      1,
		ExploreRate:       1,
		ReservoirSize:     128,
		Window:            10,
		MismatchThreshold: 0.5,
		MinRetrainSamples: 20,
		Retrain:           autotuner.RetrainOptions{TrainOptions: nitro.TrainOptions{Seed: 1}},
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
	var back core.AdaptStats
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

// Ablation benches: Call against a FixInputs handle consumed at once, on a
// live code variant with one cheap feature the tuned program reads and four
// 1000-iteration features. fixed selects the FixInputs -> Call path.
func benchFeatureMode(b *testing.B, fixed bool) {
	cv := buildToy(b, nitro.DefaultPolicy("toy"))
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
		if fixed {
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

func BenchmarkAblationFeatureEvalCall(b *testing.B)      { benchFeatureMode(b, false) }
func BenchmarkAblationFeatureEvalFixInputs(b *testing.B) { benchFeatureMode(b, true) }

// TestFacadeNames pins the facade: the exported top-level names nitro.go
// declares. A name stays only if the examples, a README code block,
// example_test.go or the package doc's usage text uses it, a kept
// function's signature names it, it is Abort or a sentinel error a kept call
// returns, or it shares a const group with a kept constant. A change that
// adds or removes a name updates this list and says why in CHANGES.md.
func TestFacadeNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "nitro.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						got = append(got, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	want := []string{
		"Abort",
		"AdaptEngine",
		"AdaptPolicy",
		"Autotuner",
		"CodeVariant",
		"ConstraintFn",
		"Context",
		"DecisionTrace",
		"DefaultAdaptPolicy",
		"DefaultPolicy",
		"DefaultQuarantine",
		"EnableAdaptation",
		"ErrAllVariantsVetoed",
		"ErrInjectedFault",
		"ErrModelMismatch",
		"ErrVariantTimeout",
		"FaultConfig",
		"Feature",
		"FunctionSpec",
		"MetricsRegistry",
		"ModelPoller",
		"NewAutotuner",
		"NewCodeVariant",
		"NewContext",
		"NewMetricsRegistry",
		"NewModelPoller",
		"NewRegistryClient",
		"QuarantinePolicy",
		"RegistryClient",
		"RegistryClientConfig",
		"RemoteSample",
		"TraceAlways",
		"TraceOff",
		"TracePolicy",
		"TraceSampled",
		"TrainOptions",
		"TuningPolicy",
		"VariantError",
		"VariantFn",
		"WrapFault",
	}
	if !slices.Equal(got, want) {
		t.Errorf("nitro.go declares %d exported names, want %d:\n got  %v\n want %v", len(got), len(want), got, want)
	}
}

// TestPolicyFields pins the tuning policy's surface, as TestFacadeNames pins
// the facade: the exported fields of TuningPolicy. A change that adds a
// policy knob updates this list and justifies the knob in CHANGES.md.
func TestPolicyFields(t *testing.T) {
	typ := reflect.TypeOf(core.TuningPolicy{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	slices.Sort(got)
	want := []string{"ConstraintsEnabled", "Name", "Quarantine", "VariantTimeout"}
	if !slices.Equal(got, want) {
		t.Fatalf("TuningPolicy fields = %v, want %v", got, want)
	}
}
