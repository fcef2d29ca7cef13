package core

// Tests for on-demand feature evaluation: the compiled walk reads only the
// features on its path, the whole vector is completed only when a later
// rung, an admitting observer or the tracer needs it, a lazily walked call
// decides exactly as PredictTier does on the eagerly evaluated vector, and
// a FixInputs handle, whose prefetch evaluates features in the background,
// serves exactly what Call serves.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"nitro/internal/ml"
)

// randomModel builds a model over dim raw features whose exact classifier
// and distilled program answer labels in [0, nv): a fitted scaler (some
// features constant, so their scaled value is 0), a decision tree fitted on
// random scaled points, and a random forward-edge program of depth <= 4.
// Its margin is either the smallest positive float, which the walk clears
// unless it lands exactly on a threshold, or a wide one that sends many
// walks to the exact tier.
func randomModel(t *testing.T, rng *rand.Rand, dim, nv int) *ml.Model {
	t.Helper()
	raw := make([][]float64, 2)
	for i := range raw {
		raw[i] = make([]float64, dim)
	}
	for j := 0; j < dim; j++ {
		lo := rng.Float64()*20 - 10
		raw[0][j], raw[1][j] = lo, lo+rng.Float64()*10
		if rng.IntN(6) == 0 {
			raw[1][j] = lo
		}
	}
	sc := &ml.Scaler{}
	if err := sc.Fit(raw); err != nil {
		t.Fatal(err)
	}
	ds := &ml.Dataset{}
	for i := 0; i < 16; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 2*rng.Float64() - 1
		}
		ds.Append(x, rng.IntN(nv))
	}
	tree := ml.NewDecisionTree(4, 1)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	c := &ml.Compiled{Dim: dim, Margin: math.SmallestNonzeroFloat64}
	if rng.IntN(2) == 0 {
		c.Margin = 0.6 * rng.Float64()
	}
	for k := 0; k < 1+rng.IntN(nv); k++ {
		c.Classes = append(c.Classes, rng.IntN(nv))
	}
	var emit func(depth int) int32
	emit = func(depth int) int32 {
		id := int32(len(c.Nodes))
		c.Nodes = append(c.Nodes, ml.CompiledNode{Left: -1, Right: -1, Class: int32(rng.IntN(len(c.Classes)))})
		if depth < 4 && rng.IntN(4) != 0 {
			c.Nodes[id].Feature = int32(rng.IntN(dim))
			c.Nodes[id].Threshold = 2.4*rng.Float64() - 1.2
			c.Nodes[id].Left = emit(depth + 1)
			c.Nodes[id].Right = emit(depth + 1)
		}
		return id
	}
	emit(0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return &ml.Model{Classifier: tree, Scaler: sc, Compiled: c}
}

// vectorCV registers a function whose input is its own raw feature vector:
// dim features (feature j reads in[j] and costs j+1) and nv variants, each
// returning its own index. No constraints, so the served variant is always
// the model's pick.
func vectorCV(cx *Context, name string, dim, nv int) *CodeVariant[[]float64] {
	cv := New[[]float64](cx, DefaultPolicy(name))
	for i := 0; i < nv; i++ {
		v := float64(i)
		cv.AddVariant(fmt.Sprint("v", i), func([]float64) float64 { return v })
	}
	for j := 0; j < dim; j++ {
		cost := float64(j + 1)
		cv.AddInputFeature(Feature[[]float64]{
			Name: fmt.Sprint("f", j),
			Eval: func(in []float64) float64 { return in[j] },
			Cost: func([]float64) float64 { return cost },
		})
	}
	return cv
}

// tierDelta names the one tier counter that moved between two snapshots.
func tierDelta(t *testing.T, before, after CallStats) ml.Tier {
	t.Helper()
	switch {
	case after.CompiledHits == before.CompiledHits+1:
		return ml.TierCompiled
	case after.ExactFallbacks == before.ExactFallbacks+1:
		return ml.TierExact
	case after.MemoHits == before.MemoHits+1:
		return ml.TierMemo
	}
	t.Fatalf("no tier counter moved: %+v -> %+v", before, after)
	return ml.TierNone
}

// A lazily walked Call serves the variant, tier and model that PredictTier
// picks on the eagerly evaluated vector, over generated programs, scalers
// and inputs: narrow margins and wide ones that force the exact tier,
// functions with more than 64 features (a multi-word evaluated-feature
// bitset), repeated inputs the memo answers, and a canary at fractions 0,
// 0.5 and 1. A memo hit stands for the exact tier: the memo holds only
// exact-tier predictions.
func TestLazyCallMatchesPredictTier(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	seen := map[ml.Tier]int{}
	for trial := 0; trial < 48; trial++ {
		dim := 1 + rng.IntN(8)
		if trial%4 == 3 {
			dim = 65 + rng.IntN(70)
		}
		nv := 2 + rng.IntN(4)
		fraction := []float64{0, 0.5, 1}[trial%3]
		name := fmt.Sprint("lazy", trial)
		cx := NewContext()
		cv := vectorCV(cx, name, dim, nv)
		stable, challenger := randomModel(t, rng, dim, nv), randomModel(t, rng, dim, nv)
		if err := cx.SetModel(name, stable); err != nil {
			t.Fatal(err)
		}
		if err := cx.SetCanary(name, challenger, fraction); err != nil {
			t.Fatal(err)
		}
		var inputs [][]float64
		for call := 0; call < 60; call++ {
			var x []float64
			if len(inputs) > 0 && rng.IntN(3) == 0 {
				x = inputs[rng.IntN(len(inputs))]
			} else {
				x = make([]float64, dim)
				for j := range x {
					x[j] = stable.Scaler.Min[j] - 2 + rng.Float64()*(stable.Scaler.Max[j]-stable.Scaler.Min[j]+4)
				}
				inputs = append(inputs, x)
			}
			before, canaryBefore := cx.Stats(name), cx.CanaryStats(name).Calls
			_, variant, err := cv.Call(x)
			if err != nil {
				t.Fatal(err)
			}
			m := stable
			if cx.CanaryStats(name).Calls > canaryBefore {
				m = challenger
			}
			want, wantTier := m.PredictTier(x)
			gotTier := tierDelta(t, before, cx.Stats(name))
			seen[gotTier]++
			if variant != fmt.Sprint("v", want) {
				t.Fatalf("trial %d call %d: served %s, PredictTier on the whole vector picks v%d", trial, call, variant, want)
			}
			if gotTier != wantTier && !(gotTier == ml.TierMemo && wantTier == ml.TierExact && m == stable) {
				t.Fatalf("trial %d call %d: served by the %v tier, PredictTier answers from %v", trial, call, gotTier, wantTier)
			}
		}
		switch served := cx.CanaryStats(name).Calls; {
		case fraction == 0 && served != 0, fraction == 1 && served != 60:
			t.Fatalf("trial %d: canary at fraction %v served %d of 60 calls", trial, fraction, served)
		}
	}
	for _, tier := range []ml.Tier{ml.TierCompiled, ml.TierExact, ml.TierMemo} {
		if seen[tier] == 0 {
			t.Fatalf("no call was served by the %v tier: %v", tier, seen)
		}
	}
}

// countingCV registers five features that count their Eval and Cost runs;
// feature j costs 2^j, so a FeatureSeconds total names the features charged.
func countingCV(t *testing.T, name string) (*CodeVariant[testInput], *[5]int, *[5]int) {
	t.Helper()
	cv := New[testInput](NewContext(), DefaultPolicy(name))
	cv.AddVariant("small", func(in testInput) float64 { return 1 })
	cv.AddVariant("large", func(in testInput) float64 { return 2 })
	var evals, costs [5]int
	for j := 0; j < 5; j++ {
		cv.AddInputFeature(Feature[testInput]{
			Name: fmt.Sprint("f", j),
			Eval: func(in testInput) float64 { evals[j]++; return in.X + float64(j) },
			Cost: func(testInput) float64 { costs[j]++; return float64(int(1) << j) },
		})
	}
	return cv, &evals, &costs
}

// depthOneModel is a model over countingCV's features whose program is one
// split on feature 3 (raw X+3 <= 8, i.e. X <= 5, serves class 0).
func depthOneModel(t *testing.T) *ml.Model {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x <= 10; x++ {
		ds.Append([]float64{x, x + 1, x + 2, x + 3, x + 4}, map[bool]int{true: 0, false: 1}[x <= 5])
	}
	sc := &ml.Scaler{}
	scaled, err := sc.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	tree := ml.NewDecisionTree(2, 1)
	if err := tree.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	return &ml.Model{Classifier: tree, Scaler: sc, Compiled: &ml.Compiled{
		Nodes: []ml.CompiledNode{
			{Feature: 3, Threshold: 0, Left: 1, Right: 2},
			{Left: -1, Right: -1, Class: 0},
			{Left: -1, Right: -1, Class: 1},
		},
		Classes: []int{0, 1},
		Dim:     5,
		Margin:  math.SmallestNonzeroFloat64,
	}}
}

// A depth-1 program runs exactly one Eval and one Cost per call, those of
// the feature it splits on, and FeatureSeconds charges only that cost.
func TestDepthOneProgramEvaluatesOneFeature(t *testing.T) {
	cv, evals, costs := countingCV(t, "depth1")
	if err := cv.Context().SetModel("depth1", depthOneModel(t)); err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.5, 2, 4.5, 5.5, 7, 9.5, 12}
	for _, x := range xs {
		_, name, err := cv.Call(testInput{X: x})
		if want := map[bool]string{true: "small", false: "large"}[x <= 5]; err != nil || name != want {
			t.Fatalf("x=%v: (%q, %v), want %s", x, name, err, want)
		}
	}
	n := len(xs)
	if want := [5]int{3: n}; *evals != want || *costs != want {
		t.Fatalf("Eval runs %v, Cost runs %v; want only feature 3, once per call: %v", *evals, *costs, want)
	}
	st := cv.Context().Stats("depth1")
	if st.CompiledHits != n || st.FeatureSeconds != float64(8*n) {
		t.Fatalf("%+v: want %d compiled hits charging feature 3's cost 8 each", st, n)
	}
}

// recordingObserver admits every call when admit is set and keeps a copy of
// each observed feature vector.
type recordingObserver[In any] struct {
	admit    bool
	admitted int
	observed [][]float64
}

func (o *recordingObserver[In]) AdmitCall() bool {
	o.admitted++
	return o.admit
}

func (o *recordingObserver[In]) ObserveCall(obs CallObservation[In]) {
	o.observed = append(o.observed, slices.Clone(obs.Features))
}

// mutInput is an input that its variants overwrite.
type mutInput struct{ v *[3]float64 }

// An observer-admitted call receives the whole feature vector as it was
// before its variant ran, even though the program reads one feature and the
// variant overwrites the input; calls the observer declines are never
// observed and evaluate only the feature the program reads.
func TestAdmittedCallObservesVectorBeforeVariant(t *testing.T) {
	cx := NewContext()
	cv := New[mutInput](cx, DefaultPolicy("mut"))
	for i, name := range []string{"low", "high"} {
		val := float64(i)
		cv.AddVariant(name, func(in mutInput) float64 { *in.v = [3]float64{-1, -1, -1}; return val })
	}
	var evals int
	for j := 0; j < 3; j++ {
		cv.AddInputFeature(Feature[mutInput]{
			Name: fmt.Sprint("f", j),
			Eval: func(in mutInput) float64 { evals++; return in.v[j] },
		})
	}
	ds := &ml.Dataset{}
	for x := 0.0; x < 8; x++ {
		ds.Append([]float64{x, 10 + x, 20 + x}, map[bool]int{true: 0, false: 1}[x < 4])
	}
	sc := &ml.Scaler{}
	scaled, err := sc.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	tree := ml.NewDecisionTree(2, 1)
	if err := tree.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	m := &ml.Model{Classifier: tree, Scaler: sc, Compiled: &ml.Compiled{
		Nodes:   []ml.CompiledNode{{Feature: 0, Left: 1, Right: 2}, {Left: -1, Class: 0}, {Left: -1, Class: 1}},
		Classes: []int{0, 1}, Dim: 3, Margin: math.SmallestNonzeroFloat64,
	}}
	if err := cx.SetModel("mut", m); err != nil {
		t.Fatal(err)
	}

	o := &recordingObserver[mutInput]{}
	cv.SetCallObserver(o)
	if _, name, err := cv.Call(mutInput{v: &[3]float64{1, 11, 21}}); err != nil || name != "low" {
		t.Fatalf("declined call: (%q, %v), want low", name, err)
	}
	if o.admitted != 1 || len(o.observed) != 0 || evals != 1 {
		t.Fatalf("declined call: %d admission(s), %d observation(s), %d Eval(s); want 1, 0, 1", o.admitted, len(o.observed), evals)
	}

	o.admit = true
	if _, name, err := cv.Call(mutInput{v: &[3]float64{6, 16, 26}}); err != nil || name != "high" {
		t.Fatalf("admitted call: (%q, %v), want high", name, err)
	}
	if len(o.observed) != 1 || !slices.Equal(o.observed[0], []float64{6, 16, 26}) {
		t.Fatalf("admitted call observed %v, want the pre-variant vector [6 16 26]", o.observed)
	}
	if evals != 4 {
		t.Fatalf("admitted call ran %d Evals, want all 3 once", evals-1)
	}
}

// SelectIndex on an already evaluated vector allocates nothing, whether the
// compiled walk decides or the memo answers for a model without a program.
func TestSelectIndexZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	distilled, _ := distilledConcurrentCV(t, DefaultPolicy("select-compiled"))
	exact, _ := buildConcurrentCV(t, DefaultPolicy("select-memo"))
	in := testInput{X: 7}
	vec := []float64{7}
	for _, cv := range []*CodeVariant[testInput]{distilled, exact} {
		for i := 0; i < 3; i++ { // warm pools; the second miss stores the memo entry
			if _, _, err := cv.SelectIndex(in, vec); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(500, func() {
			if idx, _, err := cv.SelectIndex(in, vec); err != nil || idx != 1 {
				t.Fatalf("SelectIndex = (%d, %v), want 1", idx, err)
			}
		}); n != 0 {
			t.Errorf("%s: SelectIndex allocates %v per run, want 0", cv.Policy().Name, n)
		}
	}
	if st := distilled.Context().Stats("select-compiled"); st.MemoHits != 0 || st.CompiledHits == 0 {
		t.Fatalf("distilled SelectIndex did not take the compiled walk: %+v", st)
	}
	if st := exact.Context().Stats("select-memo"); st.MemoHits == 0 {
		t.Fatalf("undistilled SelectIndex never hit the memo: %+v", st)
	}
}

// probeInput is a raw feature vector that counts the Eval runs of each of
// its features.
type probeInput struct {
	x     []float64
	evals []int
}

// probeCV is vectorCV over probeInput: feature j reads x[j], counts its run
// and costs j+1; variant i returns i.
func probeCV(cx *Context, name string, dim, nv int) *CodeVariant[probeInput] {
	cv := New[probeInput](cx, DefaultPolicy(name))
	for i := 0; i < nv; i++ {
		v := float64(i)
		cv.AddVariant(fmt.Sprint("v", i), func(probeInput) float64 { return v })
	}
	for j := 0; j < dim; j++ {
		cost := float64(j + 1)
		cv.AddInputFeature(Feature[probeInput]{
			Name: fmt.Sprint("f", j),
			Eval: func(in probeInput) float64 { in.evals[j]++; return in.x[j] },
			Cost: func(probeInput) float64 { return cost },
		})
	}
	return cv
}

// everyThird admits every third call it is asked about and counts what it
// observes.
type everyThird struct{ asked, observed int }

func (o *everyThird) AdmitCall() bool {
	o.asked++
	return o.asked%3 == 0
}

func (o *everyThird) ObserveCall(CallObservation[probeInput]) { o.observed++ }

// FixInputs(in).Call() serves what Call(in) serves on a twin CodeVariant —
// the variant, the value, every dispatch counter and the canary's — over
// the generated programs, scalers and inputs of
// TestLazyCallMatchesPredictTier, while SetModel to another model, SetCanary
// at 0, 0.5 or 1, or ClearCanary lands between FixInputs and CallFixed,
// with and without an observer that admits every third call. Each feature's
// Eval runs at most once per handle. The prefetch races the installs it
// straddles, so this is also a -race test of the handle's hand-off.
func TestFixInputsMatchesCall(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	seen := map[ml.Tier]int{}
	var canaryServed, observed int
	for trial := 0; trial < 24; trial++ {
		dim := 1 + rng.IntN(8)
		if trial%4 == 3 {
			dim = 65 + rng.IntN(70)
		}
		nv := 2 + rng.IntN(4)
		name := fmt.Sprint("fixed", trial)
		cxFix, cxCall := NewContext(), NewContext()
		cvFix, cvCall := probeCV(cxFix, name, dim, nv), probeCV(cxCall, name, dim, nv)
		models := []*ml.Model{randomModel(t, rng, dim, nv), randomModel(t, rng, dim, nv), randomModel(t, rng, dim, nv)}
		obsFix := &everyThird{}
		if trial%2 == 1 {
			cvFix.SetCallObserver(obsFix)
			cvCall.SetCallObserver(&everyThird{})
		}
		// between applies one change, the same to both contexts, to a
		// quarter of the calls after the first ten, which run without a
		// model.
		between := func(step int) {
			if step < 10 || rng.IntN(4) != 0 {
				return
			}
			event, m, fraction := rng.IntN(3), models[rng.IntN(len(models))], []float64{0, 0.5, 1}[rng.IntN(3)]
			if step == 10 {
				event = 0
			}
			for _, cx := range []*Context{cxFix, cxCall} {
				var err error
				switch event {
				case 0:
					err = cx.SetModel(name, m)
				case 1:
					err = cx.SetCanary(name, m, fraction)
				case 2:
					cx.ClearCanary(name)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		var inputs [][]float64
		for step := 0; step < 120; step++ {
			var x []float64
			if len(inputs) > 0 && rng.IntN(2) == 0 {
				x = inputs[rng.IntN(len(inputs))]
			} else {
				x = make([]float64, dim)
				sc := models[0].Scaler
				for j := range x {
					x[j] = sc.Min[j] - 2 + rng.Float64()*(sc.Max[j]-sc.Min[j]+4)
				}
				inputs = append(inputs, x)
			}
			fixEvals := make([]int, dim)
			h := cvFix.FixInputs(probeInput{x: x, evals: fixEvals})
			between(step)
			before, canaryBefore := cxFix.Stats(name), cxFix.CanaryStats(name).Calls
			vFix, nFix, errFix := h.Call()
			vCall, nCall, errCall := cvCall.Call(probeInput{x: x, evals: make([]int, dim)})
			if vFix != vCall || nFix != nCall || (errFix == nil) != (errCall == nil) {
				t.Fatalf("trial %d step %d: FixInputs served (%v, %q, %v), Call (%v, %q, %v)", trial, step, vFix, nFix, errFix, vCall, nCall, errCall)
			}
			for j, n := range fixEvals {
				if n > 1 {
					t.Fatalf("trial %d step %d: feature %d evaluated %d times on one handle", trial, step, j, n)
				}
			}
			sf, sc := cxFix.Stats(name), cxCall.Stats(name)
			if sf.Calls != before.Calls+1 {
				t.Fatalf("trial %d step %d: %d calls recorded, want 1", trial, step, sf.Calls-before.Calls)
			}
			if before.MemoHits+before.CompiledHits+before.ExactFallbacks != sf.MemoHits+sf.CompiledHits+sf.ExactFallbacks {
				seen[tierDelta(t, before, sf)]++
			}
			sf.FeatureSeconds, sc.FeatureSeconds = 0, 0
			if !reflect.DeepEqual(sf, sc) {
				t.Fatalf("trial %d step %d: FixInputs stats %+v, Call stats %+v", trial, step, sf, sc)
			}
			cf, cc := cxFix.CanaryStats(name), cxCall.CanaryStats(name)
			if cf != cc {
				t.Fatalf("trial %d step %d: FixInputs canary %+v, Call canary %+v", trial, step, cf, cc)
			}
			canaryServed += int(cf.Calls - canaryBefore)
		}
		observed += obsFix.observed
	}
	for _, tier := range []ml.Tier{ml.TierCompiled, ml.TierExact, ml.TierMemo} {
		if seen[tier] == 0 {
			t.Fatalf("no handle was served by the %v tier: %v", tier, seen)
		}
	}
	if canaryServed == 0 || observed == 0 {
		t.Fatalf("%d canary-served and %d observed handles, want some of each", canaryServed, observed)
	}
}

// On a one-split program over 32 features, a FixInputs handle evaluates
// exactly the feature the program reads, in the prefetch, and CallFixed
// evaluates none.
func TestFixInputsDepthOneEvaluatesOneFeature(t *testing.T) {
	cv, evals := manyFeaturesCV(t, "fixed-features")
	for i, x := range []float64{1, 8} {
		h := cv.FixInputs(testInput{X: x})
		<-h.done
		if n := evals.Load(); n != int64(i+1) {
			t.Fatalf("x=%v: the prefetch ran %d Evals in all, want one per handle", x, n)
		}
		if _, name, err := h.Call(); err != nil || name != []string{"small", "large"}[i] {
			t.Fatalf("x=%v: (%q, %v)", x, name, err)
		}
		if n := evals.Load(); n != int64(i+1) {
			t.Fatalf("x=%v: CallFixed ran %d more Evals, want none", x, n-int64(i+1))
		}
	}
	if st := cv.Context().Stats("fixed-features"); st.CompiledHits != 2 || st.FeatureSeconds != 0 {
		t.Fatalf("%+v: want 2 compiled hits and nothing charged", st)
	}
}
