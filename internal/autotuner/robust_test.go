package autotuner

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"nitro/internal/core"
)

// liveCV builds the two-variant toy function the live-tuner tests use, with
// optional overrides for the variant bodies.
func liveCV(fns map[string]core.VariantFn[float64]) *core.CodeVariant[float64] {
	cx := core.NewContext()
	cv := core.New[float64](cx, core.DefaultPolicy("toy"))
	low := func(x float64) float64 { return 1 + x }
	high := func(x float64) float64 { return 11 - x }
	if fn, ok := fns["low"]; ok {
		low = fn
	}
	if fn, ok := fns["high"]; ok {
		high = fn
	}
	cv.AddVariant("low", low)
	cv.AddVariant("high", high)
	cv.AddInputFeature(core.Feature[float64]{Name: "x", Eval: func(x float64) float64 { return x }})
	_ = cv.SetDefault("low")
	return cv
}

func tuneInputs() []float64 {
	var inputs []float64
	for x := 0.0; x <= 10; x += 0.5 {
		inputs = append(inputs, x)
	}
	return inputs
}

// TestTuneCtxMatchesTune asserts the context-aware tuning entry point is
// byte-identical to Tune with a background context: same report, same model
// behaviour.
func TestTuneCtxMatchesTune(t *testing.T) {
	inputs := tuneInputs()
	run := func(useCtx bool) (Report, []string) {
		cv := liveCV(nil)
		tuner := &Tuner[float64]{CV: cv, Opts: TrainOptions{}}
		var rep Report
		var err error
		if useCtx {
			rep, err = tuner.TuneCtx(context.Background(), inputs)
		} else {
			rep, err = tuner.Tune(inputs)
		}
		if err != nil {
			t.Fatal(err)
		}
		var picks []string
		for _, x := range inputs {
			_, name, _ := cv.Call(x)
			picks = append(picks, name)
		}
		return rep, picks
	}
	repA, picksA := run(false)
	repB, picksB := run(true)
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("reports differ:\nTune:    %+v\nTuneCtx: %+v", repA, repB)
	}
	if !reflect.DeepEqual(picksA, picksB) {
		t.Errorf("tuned selections differ: %v vs %v", picksA, picksB)
	}
}

// TestTuneToleratesPanickingVariant asserts the offline tuner records a
// variant that panics on some inputs as infeasible there instead of aborting
// the corpus — and still trains a usable model from the surviving variant.
func TestTuneToleratesPanickingVariant(t *testing.T) {
	cv := liveCV(map[string]core.VariantFn[float64]{
		"high": func(x float64) float64 {
			if x == 7 {
				panic("high variant broken for this input")
			}
			return 11 - x
		},
	})
	tuner := &Tuner[float64]{CV: cv, Opts: TrainOptions{}}
	rep, err := tuner.Tune(tuneInputs())
	if err != nil {
		t.Fatalf("Tune with a panicking variant: %v", err)
	}
	// Every input must have been labelled: the panicking region simply labels
	// as the surviving variant.
	if rep.Skipped != 0 {
		t.Errorf("skipped %d inputs, want 0 (variant 0 is always feasible)", rep.Skipped)
	}
	if rep.LabelCounts[1] == 0 {
		t.Errorf("label counts %v: variant 1 should still win where it works", rep.LabelCounts)
	}
	if _, ok := cv.Context().Model("toy"); !ok {
		t.Fatal("no model installed")
	}
}

// TestTuneToleratesPanickingFeature asserts a feature function that panics on
// an input marks that input infeasible (skipped) rather than killing the run.
func TestTuneToleratesPanickingFeature(t *testing.T) {
	cx := core.NewContext()
	cv := core.New[float64](cx, core.DefaultPolicy("toy"))
	cv.AddVariant("low", func(x float64) float64 { return 1 + x })
	cv.AddVariant("high", func(x float64) float64 { return 11 - x })
	cv.AddInputFeature(core.Feature[float64]{Name: "x", Eval: func(x float64) float64 {
		if x == 3 {
			panic("bad input")
		}
		return x
	}})
	_ = cv.SetDefault("low")
	tuner := &Tuner[float64]{CV: cv, Opts: TrainOptions{}}
	rep, err := tuner.Tune(tuneInputs())
	if err != nil {
		t.Fatalf("Tune with a panicking feature: %v", err)
	}
	if rep.Skipped != 1 {
		t.Errorf("skipped %d inputs, want exactly the one with the broken feature", rep.Skipped)
	}
}

func TestTuneCtxCancelled(t *testing.T) {
	cv := liveCV(nil)
	tuner := &Tuner[float64]{CV: cv, Opts: TrainOptions{}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tuner.TuneCtx(ctx, tuneInputs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := cv.Context().Model("toy"); ok {
		t.Fatal("cancelled tune must not install a model")
	}
}

// TestReplayVetoedPropagation covers ErrAllVariantsVetoed propagation on the
// concurrent and replay paths (the serial Call path is regression-tested in
// internal/core): an all-infeasible instance must surface the typed error
// through CallConcurrent result slots, not execute a vetoed variant.
func TestReplayVetoedPropagation(t *testing.T) {
	s := syntheticSuite(80, 40, 5)
	model, _, err := Train(s.Train, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cx := core.NewContext()
	cv, err := ReplayVariant(cx, s, core.DefaultPolicy("replay"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cx.SetModel("replay", model); err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	dead := Instance{Features: []float64{5, 5}, Times: []float64{inf, inf, inf}}

	// Serial replay path.
	if _, _, err := cv.Call(dead); !errors.Is(err, core.ErrAllVariantsVetoed) {
		t.Fatalf("ReplayVariant serial Call: err = %v, want ErrAllVariantsVetoed", err)
	}

	// Concurrent path: a batch mixing dead and live instances must veto
	// exactly the dead ones.
	feasible := FeasibleTest(s)
	if len(feasible) < 2 {
		t.Fatal("need feasible instances")
	}
	batch := []Instance{dead, feasible[0], dead, feasible[1]}
	results := cv.CallConcurrent(batch, 0)
	for i, r := range results {
		if i%2 == 0 {
			if !errors.Is(r.Err, core.ErrAllVariantsVetoed) {
				t.Errorf("slot %d: err = %v, want ErrAllVariantsVetoed", i, r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("slot %d: unexpected error %v", i, r.Err)
		}
	}
	// Vetoed calls must not be recorded as executions: only the two live
	// batch slots count (the serial dead call and both dead slots veto).
	if st := cx.Stats("replay"); st.Calls != 2 {
		t.Errorf("stats recorded %d calls, want 2", st.Calls)
	}
}
