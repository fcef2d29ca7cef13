package main

import (
	"fmt"
	"math"
	"strings"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
)

// Offline tuning shared by dispatch_hot and adapt_drift: the paper's
// pipeline on the five suites, serial everywhere so the numbers measure
// the program rather than the scheduler.

// paperFn is one paper function after offline tuning, served from cx.
type paperFn struct {
	cx    *core.Context
	suite *autotuner.Suite
	model *ml.Model
	cv    *core.CodeVariant[autotuner.Instance]
	// heldOut are the suite's test instances with at least one feasible
	// variant: the inputs deployment can serve.
	heldOut []autotuner.Instance
	grid    int // cross-validation grid points evaluated
}

// suiteLayer maps a builder name to its per-layer metric.
func suiteLayer(name string) string {
	return "datasets." + strings.ToLower(name) + "_s"
}

// buildSuites generates and labels the five corpora, one span each.
func buildSuites(cfg datasets.Config, t *tracer) ([]*autotuner.Suite, error) {
	dev := gpusim.Fermi()
	var out []*autotuner.Suite
	for _, b := range datasets.Builders() {
		id := t.begin("datasets." + b.Name)
		s, err := b.Build(cfg, dev)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", b.Name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// trainOptions is the paper's offline classifier set-up: SVM with a
// cross-validated (C, gamma) grid search, run serially.
func trainOptions(seed int64) autotuner.TrainOptions {
	return autotuner.TrainOptions{
		GridSearch:  true,
		Seed:        seed,
		Parallelism: 1,
		Grid: ml.GridConfig{
			CValues:     []float64{0.5, 4, 32, 256},
			GammaValues: []float64{1.0 / 128, 1.0 / 16, 0.5, 4},
			Folds:       4,
			Seed:        seed,
			Parallelism: 1,
		},
	}
}

// tuneAll trains, distills and installs a model for every suite on a
// fresh context.
func tuneAll(suites []*autotuner.Suite, seed int64, t *tracer) (*core.Context, []*paperFn, error) {
	cx := core.NewContext()
	var fns []*paperFn
	for _, s := range suites {
		f, err := tuneOne(cx, s, seed, t)
		if err != nil {
			return nil, nil, fmt.Errorf("tune %s: %w", s.Name, err)
		}
		fns = append(fns, f)
	}
	return cx, fns, nil
}

// tuneOne runs autotuner.Train, ml.Distill (best effort, as the tuner
// does), autotuner.ReplayVariant and Context.SetModel for one suite.
func tuneOne(cx *core.Context, s *autotuner.Suite, seed int64, t *tracer) (*paperFn, error) {
	id := t.begin("autotuner.Train")
	model, rep, err := autotuner.Train(s.Train, trainOptions(seed))
	t.end(id)
	if err != nil {
		return nil, err
	}
	corpus := make([][]float64, len(s.Train))
	for i, in := range s.Train {
		corpus[i] = in.Features
	}
	id = t.begin("ml.Distill")
	c, err := ml.Distill(model, corpus, ml.DistillOptions{})
	t.end(id)
	if err == nil {
		model.Compiled = c
	}
	cv, err := autotuner.ReplayVariant(cx, s, core.DefaultPolicy(s.Name))
	if err != nil {
		return nil, err
	}
	id = t.begin("core.SetModel")
	err = cx.SetModel(s.Name, model)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return &paperFn{cx: cx, suite: s, model: model, cv: cv, heldOut: autotuner.FeasibleTest(s), grid: rep.Grid.Evaluated}, nil
}

// expectedVariant is the benchmark's own reference for the variant core
// serves on in: the model's prediction if that variant is feasible, else
// the suite default if feasible, else the first feasible variant in
// registration order (-1 when none is).
func expectedVariant(model *ml.Model, s *autotuner.Suite, features, times []float64) int {
	feasible := func(i int) bool { return i >= 0 && i < len(times) && !math.IsInf(times[i], 1) }
	if p := model.Predict(features); feasible(p) {
		return p
	}
	if feasible(s.DefaultVariant) {
		return s.DefaultVariant
	}
	for i := range times {
		if feasible(i) {
			return i
		}
	}
	return -1
}

// variantIndex maps variant names to registration indices.
func variantIndex(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}

// bestCost returns the exhaustive-search best cost of a cost vector.
func bestCost(times []float64) float64 {
	best := math.Inf(1)
	for _, t := range times {
		best = math.Min(best, t)
	}
	return best
}

// tierCounts is the dispatch-tier share of a CallStats delta.
type tierCounts struct{ calls, memo, compiled, exact, fallbacks int64 }

func (a tierCounts) add(s core.CallStats) tierCounts {
	a.calls += int64(s.Calls)
	a.memo += int64(s.MemoHits)
	a.compiled += int64(s.CompiledHits)
	a.exact += int64(s.ExactFallbacks)
	a.fallbacks += int64(s.DefaultFallbacks)
	return a
}

func (a tierCounts) sub(b tierCounts) tierCounts {
	return tierCounts{a.calls - b.calls, a.memo - b.memo, a.compiled - b.compiled, a.exact - b.exact, a.fallbacks - b.fallbacks}
}

// fnStats sums the tier counters of the functions.
func fnStats(fns []*paperFn) tierCounts {
	var t tierCounts
	for _, f := range fns {
		t = t.add(f.cx.Stats(f.suite.Name))
	}
	return t
}

// statsOf sums the tier counters of the named functions.
func statsOf(cx *core.Context, names ...string) tierCounts {
	var t tierCounts
	for _, n := range names {
		t = t.add(cx.Stats(n))
	}
	return t
}

// setTiers reports the per-layer dispatch-tier shares and records the
// counts for the determinism line.
func setTiers(r *report, t tierCounts) {
	tiers := t.memo + t.compiled + t.exact
	r.set("core.memo_hit_pct", pct(t.memo, tiers), int(tiers))
	r.set("core.compiled_pct", pct(t.compiled, tiers), int(tiers))
	r.set("core.exact_pct", pct(t.exact, tiers), int(tiers))
	r.set("core.fallback_pct", pct(t.fallbacks, t.calls), int(t.calls))
	r.counts["core.calls"] = t.calls
	r.counts["core.memo_hits"] = t.memo
	r.counts["core.compiled_hits"] = t.compiled
	r.counts["core.exact"] = t.exact
	r.counts["core.default_fallbacks"] = t.fallbacks
}
