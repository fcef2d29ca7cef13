package autotuner

import (
	"math"
	"testing"

	"nitro/internal/ml"
)

// TestSeedAndPoolKeepsInfeasibleInPool is the regression test for the
// dropped-instance bug: seedAndPool used to discard all-infeasible training
// instances entirely, silently shrinking the active pool and making the
// oracle's `best < 0 -> default variant` branch dead code. Infeasible
// instances must land in the pool (never the seed).
func TestSeedAndPoolKeepsInfeasibleInPool(t *testing.T) {
	inf := math.Inf(1)
	instances := []Instance{
		{ID: "a", Features: []float64{0}, Times: []float64{1, 2}},        // seed for label 0
		{ID: "b", Features: []float64{1}, Times: []float64{3, 1}},        // seed for label 1
		{ID: "dead", Features: []float64{2}, Times: []float64{inf, inf}}, // infeasible
		{ID: "c", Features: []float64{3}, Times: []float64{1, 5}},        // pool
	}
	seed, pool := seedAndPool(instances)
	if len(seed) != 2 {
		t.Fatalf("seed size = %d, want 2", len(seed))
	}
	for _, in := range seed {
		if b, _ := in.Best(); b < 0 {
			t.Errorf("infeasible instance %q leaked into the seed", in.ID)
		}
	}
	if len(pool) != 2 {
		t.Fatalf("pool size = %d, want 2 (infeasible instance must stay in the pool)", len(pool))
	}
	found := false
	for _, in := range pool {
		if in.ID == "dead" {
			found = true
		}
	}
	if !found {
		t.Error("infeasible instance was dropped from the pool")
	}
}

// TestIncrementalTuneLabelsInfeasibleAsDefault drives the live oracle branch:
// when the active learner queries an infeasible pool point, the oracle labels
// it with the suite's default variant (the paper's deployment fallback) and
// the loop completes without error.
func TestIncrementalTuneLabelsInfeasibleAsDefault(t *testing.T) {
	inf := math.Inf(1)
	s := &Suite{
		Name:           "infeasible",
		VariantNames:   []string{"v0", "v1"},
		FeatureNames:   []string{"x"},
		DefaultVariant: 0,
	}
	// Label boundary at x=5; a cluster of infeasible points at x ~ 20 sits
	// far from everything, so BvSB will visit ambiguous regions but the run
	// exhausts the pool and must label the infeasible points too.
	for x := 0.0; x < 10; x++ {
		times := []float64{1 + x, 11 - x}
		s.Train = append(s.Train, Instance{Features: []float64{x}, Times: times})
		s.Test = append(s.Test, Instance{Features: []float64{x + 0.5}, Times: []float64{1.5 + x, 10.5 - x}})
	}
	for i := 0; i < 3; i++ {
		s.Train = append(s.Train, Instance{
			ID:       "dead",
			Features: []float64{20 + float64(i)},
			Times:    []float64{inf, inf},
		})
	}

	// No iteration cap: drain the pool, forcing oracle queries on the
	// infeasible points.
	res, err := IncrementalTune(s, IncrementalOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantQueries := len(s.Train) - res.SeedSize
	if res.Queries != wantQueries {
		t.Errorf("Queries = %d, want %d (pool including infeasible instances fully drained)", res.Queries, wantQueries)
	}
	if res.Model == nil {
		t.Fatal("no model returned")
	}
	// The infeasible cluster was labelled with the default variant, so the
	// model should predict the default out there.
	if got := res.Model.Predict([]float64{21}); got != s.DefaultVariant {
		t.Errorf("prediction at the infeasible cluster = %d, want default %d", got, s.DefaultVariant)
	}
	var _ ml.Classifier = res.Model.Classifier
}
