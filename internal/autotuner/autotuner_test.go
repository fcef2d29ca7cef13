package autotuner

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nitro/internal/core"
	"nitro/internal/ml"
)

// syntheticSuite builds a 3-variant suite where the best variant is a
// deterministic function of a 2-D feature vector, with some instances
// marking variant 2 infeasible and a few instances fully infeasible.
func syntheticSuite(nTrain, nTest int, seed int64) *Suite {
	rng := rand.New(rand.NewSource(seed))
	gen := func(n int, allInfeasibleEvery int) []Instance {
		out := make([]Instance, 0, n)
		for i := 0; i < n; i++ {
			x := rng.Float64() * 10
			y := rng.Float64() * 10
			// Cost surfaces: variant 0 wins for x<4, variant 1 for x>=4 &
			// y<5, variant 2 for x>=4 & y>=5.
			t0 := 1 + x
			t1 := 5 - 0.3*x + 0.5*y
			t2 := 8 - 0.4*x - 0.5*y
			times := []float64{t0, t1, t2}
			if x < 2 { // constraint vetoes variant 2 in this region
				times[2] = math.Inf(1)
			}
			if allInfeasibleEvery > 0 && i%allInfeasibleEvery == allInfeasibleEvery-1 {
				times = []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
			}
			out = append(out, Instance{Features: []float64{x, y}, Times: times})
		}
		return out
	}
	return &Suite{
		Name:           "synthetic",
		VariantNames:   []string{"v0", "v1", "v2"},
		FeatureNames:   []string{"x", "y"},
		DefaultVariant: 0,
		Train:          gen(nTrain, 0),
		Test:           gen(nTest, 25),
	}
}

func TestInstanceBest(t *testing.T) {
	in := Instance{Times: []float64{3, 1, 2}}
	if b, v := in.Best(); b != 1 || v != 1 {
		t.Errorf("Best = %d/%v", b, v)
	}
	inf := Instance{Times: []float64{math.Inf(1), math.Inf(1)}}
	if b, _ := inf.Best(); b != -1 {
		t.Errorf("all-infeasible Best = %d", b)
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	s := syntheticSuite(80, 120, 1)
	model, rep, err := Train(s.Train, TrainOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainAccuracy < 0.8 {
		t.Errorf("train accuracy %v", rep.TrainAccuracy)
	}
	if len(rep.LabelCounts) < 2 {
		t.Errorf("labels collapsed: %v", rep.LabelCounts)
	}
	// Train returns the paper's exact model; only serving paths distill.
	if model.Compiled != nil || rep.Distilled || rep.DistillNote != "" {
		t.Errorf("Train distilled its model (note %q)", rep.DistillNote)
	}
	eval := Evaluate(model, s, s.Test)
	if eval.MeanPerf < 0.85 {
		t.Errorf("mean performance %v, want >= 0.85", eval.MeanPerf)
	}
	if eval.SkippedAllInfeasible == 0 {
		t.Error("test generator should have produced all-infeasible instances")
	}
	if eval.Evaluated+eval.SkippedAllInfeasible != len(s.Test) {
		t.Error("accounting mismatch")
	}
	if eval.FractionAbove(0.0) != 1 {
		t.Error("FractionAbove(0) must be 1")
	}
	if eval.FractionAbove(1.1) != 0 {
		t.Error("FractionAbove(>1) must be 0")
	}
}

func TestTrainGridSearch(t *testing.T) {
	s := syntheticSuite(60, 40, 2)
	model, rep, err := Train(s.Train, TrainOptions{
		GridSearch: true,
		Grid:       ml.GridConfig{CValues: []float64{1, 16}, GammaValues: []float64{0.5, 2}, Folds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid.Evaluated != 4 {
		t.Errorf("grid points evaluated = %d", rep.Grid.Evaluated)
	}
	if Evaluate(model, s, s.Test).MeanPerf < 0.85 {
		t.Error("grid-searched model underperforms")
	}
}

func TestTrainNoFeasible(t *testing.T) {
	bad := []Instance{{Features: []float64{1}, Times: []float64{math.Inf(1)}}}
	if _, _, err := Train(bad, TrainOptions{}); err == nil {
		t.Error("all-infeasible training set accepted")
	}
}

func TestEvaluateConstraintFallback(t *testing.T) {
	// A deliberately wrong model that always predicts variant 2; on
	// instances where 2 is infeasible the engine must fall back to the
	// default and still report a feasible execution.
	s := syntheticSuite(50, 50, 4)
	ds := &ml.Dataset{}
	for _, in := range s.Train {
		ds.Append(in.Features, 2)
	}
	always2 := ml.DefaultSVM() // fitted on one class, it always predicts it
	if err := always2.Fit(ds); err != nil {
		t.Fatal(err)
	}
	model := &ml.Model{Classifier: always2}
	eval := Evaluate(model, s, s.Test)
	if eval.FeasibleChosen != eval.Evaluated {
		t.Errorf("fallback failed: %d of %d feasible", eval.FeasibleChosen, eval.Evaluated)
	}
	if eval.MeanPerf > 0.95 {
		t.Errorf("always-2 model should be visibly suboptimal, got %v", eval.MeanPerf)
	}
}

func TestVariantPerf(t *testing.T) {
	s := syntheticSuite(10, 200, 5)
	perfs := VariantPerf(s, s.Test)
	if len(perfs) != 3 {
		t.Fatalf("want 3 perfs, got %v", perfs)
	}
	for v, p := range perfs {
		if p <= 0 || p > 1 {
			t.Errorf("variant %d perf %v out of (0,1]", v, p)
		}
	}
	// No single variant should be optimal everywhere in this suite.
	for v, p := range perfs {
		if p > 0.99 {
			t.Errorf("variant %d suspiciously always-best: %v", v, p)
		}
	}
}

func TestIncrementalTuneApproachesFullTraining(t *testing.T) {
	s := syntheticSuite(150, 150, 6)
	fullPerf, _, err := FullTrainPerf(s, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := IncrementalTune(s, IncrementalOptions{
		MaxIterations: 30,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 || res.Queries > 30 {
		t.Errorf("queries = %d", res.Queries)
	}
	final := res.PerfCurve[len(res.PerfCurve)-1]
	if final < 0.9*fullPerf {
		t.Errorf("incremental perf %v too far below full-training perf %v", final, fullPerf)
	}
	if res.SeedSize < 2 {
		t.Errorf("seed should cover labels, size %d", res.SeedSize)
	}
	// Curve should generally improve from seed to final.
	if final+0.02 < res.PerfCurve[0] {
		t.Errorf("active learning made things worse: %v -> %v", res.PerfCurve[0], final)
	}
}

func TestIncrementalTuneAccuracyTarget(t *testing.T) {
	s := syntheticSuite(150, 100, 7)
	res, err := IncrementalTune(s, IncrementalOptions{
		MaxIterations:  100,
		TargetAccuracy: 0.85,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries >= 100 {
		t.Logf("accuracy target not reached early (queries=%d) — acceptable but unusual", res.Queries)
	}
	if res.Model == nil {
		t.Fatal("no model returned")
	}
}

func TestIncrementalRandomStrategy(t *testing.T) {
	s := syntheticSuite(120, 80, 8)
	res, err := IncrementalTune(s, IncrementalOptions{
		MaxIterations: 15,
		Strategy:      ml.RandomStrategy{Rng: rand.New(rand.NewSource(1))},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 15 {
		t.Errorf("random strategy queries = %d", res.Queries)
	}
}

func TestOracleMeanTime(t *testing.T) {
	test := []Instance{
		{Times: []float64{2, 4}},
		{Times: []float64{math.Inf(1), 6}},
		{Times: []float64{math.Inf(1), math.Inf(1)}},
	}
	if got := OracleMeanTime(test); got != 4 {
		t.Errorf("oracle mean = %v, want 4", got)
	}
	if OracleMeanTime(nil) != 0 {
		t.Error("empty oracle mean should be 0")
	}
}

func TestLiveTunerEndToEnd(t *testing.T) {
	cx := core.NewContext()
	cv := core.New[float64](cx, core.DefaultPolicy("toy"))
	cv.AddVariant("low", func(x float64) float64 { return 1 + x })
	cv.AddVariant("high", func(x float64) float64 { return 11 - x })
	cv.AddInputFeature(core.Feature[float64]{Name: "x", Eval: func(x float64) float64 { return x }})
	_ = cv.SetDefault("low")

	var inputs []float64
	for x := 0.0; x <= 10; x += 0.5 {
		inputs = append(inputs, x)
	}
	tuner := &Tuner[float64]{CV: cv, Opts: TrainOptions{}}
	rep, err := tuner.Tune(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainAccuracy < 0.9 {
		t.Errorf("live tuner train accuracy %v", rep.TrainAccuracy)
	}
	// The separable corpus distills, and the installed model carries the
	// program.
	if m, _ := cx.Model("toy"); m == nil || m.Compiled == nil {
		t.Fatal("Tune installed a model without a compiled program")
	}
	if !rep.Distilled || !strings.HasPrefix(rep.DistillNote, "compiled dispatch: ") {
		t.Errorf("report Distilled=%v note %q, want the installed program's summary", rep.Distilled, rep.DistillNote)
	}
	_, name, _ := cv.Call(1.0)
	if name != "low" {
		t.Errorf("x=1 selected %q", name)
	}
	_, name, _ = cv.Call(9.0)
	if name != "high" {
		t.Errorf("x=9 selected %q", name)
	}
	bad := &Tuner[float64]{}
	if _, err := bad.Tune(nil); err == nil {
		t.Error("nil CV accepted")
	}
}

// TestTrainParallelismInvariant asserts the grid-searched training pipeline
// is bit-identical at every Parallelism setting: same selected
// hyper-parameters, same CV accuracy, same predictions.
func TestTrainParallelismInvariant(t *testing.T) {
	s := syntheticSuite(60, 40, 6)
	run := func(parallelism int) (*ml.Model, Report) {
		model, rep, err := Train(s.Train, TrainOptions{
			GridSearch: true, Parallelism: parallelism,
			Grid: ml.GridConfig{CValues: []float64{1, 16}, GammaValues: []float64{0.5, 2}, Folds: 3},
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return model, rep
	}
	m1, rep1 := run(1)
	m8, rep8 := run(8)
	if rep1.Grid != rep8.Grid {
		t.Errorf("grid result differs: serial %+v, parallel %+v", rep1.Grid, rep8.Grid)
	}
	if rep1.TrainAccuracy != rep8.TrainAccuracy {
		t.Errorf("train accuracy differs: %v vs %v", rep1.TrainAccuracy, rep8.TrainAccuracy)
	}
	for _, in := range s.Test {
		if m1.Predict(in.Features) != m8.Predict(in.Features) {
			t.Fatal("parallel and serial models disagree on a test instance")
		}
	}
}

// TestTunerParallelLabelling asserts Tuner.Tune's worker-pool exhaustive
// search labels the corpus identically at every Parallelism setting.
func TestTunerParallelLabelling(t *testing.T) {
	var inputs []float64
	for x := 0.0; x <= 10; x += 0.25 {
		inputs = append(inputs, x)
	}
	run := func(parallelism int) (Report, []string) {
		cx := core.NewContext()
		cv := core.New[float64](cx, core.DefaultPolicy("toy"))
		cv.AddVariant("low", func(x float64) float64 { return 1 + x })
		cv.AddVariant("high", func(x float64) float64 { return 11 - x })
		cv.AddInputFeature(core.Feature[float64]{Name: "x", Eval: func(x float64) float64 { return x }})
		_ = cv.SetDefault("low")
		tuner := &Tuner[float64]{CV: cv, Opts: TrainOptions{Parallelism: parallelism}}
		rep, err := tuner.Tune(inputs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var picks []string
		for _, x := range inputs {
			_, name, _ := cv.Call(x)
			picks = append(picks, name)
		}
		return rep, picks
	}
	rep1, picks1 := run(1)
	rep4, picks4 := run(4)
	if rep1.TrainAccuracy != rep4.TrainAccuracy || rep1.Skipped != rep4.Skipped {
		t.Errorf("reports differ: serial %+v, parallel %+v", rep1, rep4)
	}
	for i := range picks1 {
		if picks1[i] != picks4[i] {
			t.Fatalf("input %d: serial picked %q, parallel picked %q", i, picks1[i], picks4[i])
		}
	}
}

// Property-style invariants of Evaluate.
func TestEvaluateInvariants(t *testing.T) {
	s := syntheticSuite(60, 120, 10)
	model, _, err := Train(s.Train, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eval := Evaluate(model, s, s.Test)
	for i, p := range eval.PerfRatios {
		if p < 0 || p > 1+1e-12 {
			t.Fatalf("perf ratio %d = %v outside [0,1]", i, p)
		}
	}
	if len(eval.Chosen) != len(s.Test) {
		t.Fatalf("Chosen has %d entries, want %d", len(eval.Chosen), len(s.Test))
	}
	if eval.ExactMatches > eval.Evaluated {
		t.Fatal("more exact matches than evaluations")
	}
	if eval.FeasibleChosen > eval.Evaluated {
		t.Fatal("more feasible executions than evaluations")
	}
	if eval.AtRiskInstances > eval.Evaluated {
		t.Fatal("more at-risk than evaluated")
	}
}

func TestCrossValidateSuite(t *testing.T) {
	s := syntheticSuite(100, 10, 11)
	perf, err := CrossValidateSuite(s, TrainOptions{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if perf < 0.8 || perf > 1.0001 {
		t.Errorf("CV selection performance %v implausible", perf)
	}
	empty := &Suite{Train: []Instance{{Features: []float64{1}, Times: []float64{math.Inf(1)}}}}
	if _, err := CrossValidateSuite(empty, TrainOptions{}, 3); err == nil {
		t.Error("infeasible-only suite accepted")
	}
}

// Property: VariantPerf entries always land in [0, 1] regardless of the
// infeasibility pattern.
func TestQuickVariantPerfBounded(t *testing.T) {
	f := func(seed int64) bool {
		s := syntheticSuite(5, 40, seed%1000)
		for _, p := range VariantPerf(s, s.Test) {
			if p < 0 || p > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
