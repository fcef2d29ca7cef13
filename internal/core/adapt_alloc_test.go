package core_test

import (
	"testing"

	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/online"
)

// With an online engine attached, a call the engine does not admit pays only
// the admission draw: it allocates nothing, on the compiled walk's
// on-demand features as on the plain Call path.
func TestCallWithEngineZeroAlloc(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	cv := buildAdaptiveCV(t)
	cx := cv.Context()
	m, _ := cx.Model("adapt-bench")
	corpus := make([][]float64, 10)
	for x := range corpus {
		corpus[x] = []float64{float64(x)}
	}
	c, err := ml.Distill(m, corpus, ml.DistillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Compiled = c
	if err := cx.SetModel("adapt-bench", m); err != nil {
		t.Fatal(err)
	}
	pol := online.DefaultPolicy(1)
	pol.ExploreRate = 0 // sample every 4th call, admit none
	eng, err := online.Attach(cv, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	i := 0
	call := func() {
		if _, _, err := cv.Call(benchInput{X: float64(i % 10)}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	call() // warm the pools
	if n := testing.AllocsPerRun(500, call); n != 0 {
		t.Errorf("Call with an attached engine allocates %v per run, want 0", n)
	}
	if st := eng.Stats(); st.Sampled == 0 || st.Explored != 0 {
		t.Fatalf("engine stats %+v: want sampled calls and no exploration", st)
	}
	if st := cx.Stats("adapt-bench"); st.CompiledHits == 0 || st.MemoHits != 0 {
		t.Fatalf("calls did not take the compiled walk: %+v", st)
	}
}
