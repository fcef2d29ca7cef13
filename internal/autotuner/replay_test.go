package autotuner

import (
	"math"
	"testing"

	"nitro/internal/core"
)

// TestReplayVariantServesSuite checks the deployment replay bridge: a model
// trained offline on a suite, installed into a context, must drive the live
// selection engine over the suite's test instances — concurrently — choosing
// only feasible variants and recording every call.
func TestReplayVariantServesSuite(t *testing.T) {
	s := syntheticSuite(80, 40, 5)
	model, _, err := Train(s.Train, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cx := core.NewContext()
	cx.SetModel("replay", model)
	cv, err := ReplayVariant(cx, s, core.DefaultPolicy("replay"))
	if err != nil {
		t.Fatal(err)
	}
	if cv.NumVariants() != len(s.VariantNames) {
		t.Fatalf("replay has %d variants, want %d", cv.NumVariants(), len(s.VariantNames))
	}

	feasible := FeasibleTest(s)
	if len(feasible) == 0 || len(feasible) == len(s.Test) {
		t.Fatalf("suite should mix feasible (%d) and infeasible test instances", len(feasible))
	}
	results := cv.CallConcurrent(feasible, 0)
	nameToIdx := map[string]int{}
	for i, n := range s.VariantNames {
		nameToIdx[n] = i
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		vi, ok := nameToIdx[r.Variant]
		if !ok {
			t.Fatalf("instance %d: unknown variant %q", i, r.Variant)
		}
		if math.IsInf(feasible[i].Times[vi], 1) {
			t.Errorf("instance %d: replay executed infeasible variant %q", i, r.Variant)
		}
		if r.Value != feasible[i].Times[vi] {
			t.Errorf("instance %d: value %v != recorded cost %v", i, r.Value, feasible[i].Times[vi])
		}
	}
	if st := cx.Stats("replay"); st.Calls != len(feasible) {
		t.Errorf("stats recorded %d calls, want %d", st.Calls, len(feasible))
	}

	// An all-infeasible instance surfaces ErrAllVariantsVetoed instead of
	// silently executing a vetoed default.
	inf := math.Inf(1)
	dead := Instance{Features: []float64{5, 5}, Times: []float64{inf, inf, inf}}
	if _, _, err := cv.Call(dead); err == nil {
		t.Error("replay Call on an all-infeasible instance should error")
	}
}
