package online

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nitro/internal/autotuner"
	"nitro/internal/core"
)

// genInstances builds a deterministic serving stream over the same 3-variant
// cost surfaces the autotuner's synthetic suite uses: the best variant is a
// function of a 2-D feature vector, and variant 2 is constraint-infeasible
// for x < 2 (its recorded time is +Inf, which ReplayVariant turns into a
// constraint veto).
func genInstances(n int, seed int64) []autotuner.Instance {
	rng := rand.New(rand.NewSource(seed))
	out := make([]autotuner.Instance, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		y := rng.Float64() * 10
		times := []float64{1 + x, 5 - 0.3*x + 0.5*y, 8 - 0.4*x - 0.5*y}
		if x < 2 {
			times[2] = math.Inf(1)
		}
		out = append(out, autotuner.Instance{Features: []float64{x, y}, Times: times})
	}
	return out
}

// rotated returns instances whose Times vectors are rotated by one slot:
// the feature→best-variant mapping changes while the features stay — a
// synthetic concept drift.
func rotated(ins []autotuner.Instance) []autotuner.Instance {
	out := make([]autotuner.Instance, len(ins))
	for i, in := range ins {
		rot := make([]float64, len(in.Times))
		for j := range in.Times {
			rot[j] = in.Times[(j+1)%len(in.Times)]
		}
		cp := in
		cp.Times = rot
		out[i] = cp
	}
	return out
}

// fixture builds a live replay CodeVariant with an installed v1 SVM model
// trained on the healthy distribution.
func fixture(t *testing.T) (*core.Context, *core.CodeVariant[autotuner.Instance], *autotuner.Suite) {
	t.Helper()
	train := genInstances(120, 7)
	s := &autotuner.Suite{
		Name:           "adaptive",
		VariantNames:   []string{"v0", "v1", "v2"},
		FeatureNames:   []string{"x", "y"},
		DefaultVariant: 0,
		Train:          train,
	}
	model, _, err := autotuner.Train(train, autotuner.TrainOptions{Classifier: "svm", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cx := core.NewContext()
	cv, err := autotuner.ReplayVariant(cx, s, core.DefaultPolicy(s.Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := cx.SetModel(s.Name, model); err != nil {
		t.Fatal(err)
	}
	return cx, cv, s
}

// testPolicy is the fast deterministic configuration the engine tests share:
// every call sampled and explored, 10-observation windows, drift after 2 bad
// windows, retrain once 40 drifted samples exist (so the first drift verdict
// defers — exercising that path — and the retrain launches two windows
// later), synchronous retraining for determinism.
func testPolicy(seed int64) Policy {
	return Policy{
		SamplePeriod:      1,
		ExploreRate:       1,
		ReservoirSize:     256,
		Window:            10,
		MismatchThreshold: 0.5,
		MinRetrainSamples: 40,
		Retrain: autotuner.RetrainOptions{
			TrainOptions: autotuner.TrainOptions{Classifier: "svm", Seed: 1},
		},
		Seed:        seed,
		Synchronous: true,
	}
}

// serve pushes instances through Call, failing the test on serving errors.
func serve(t *testing.T, cv *core.CodeVariant[autotuner.Instance], ins []autotuner.Instance) {
	t.Helper()
	for i, in := range ins {
		if _, _, err := cv.Call(in); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestAttachValidation(t *testing.T) {
	if _, err := Attach[int](nil, DefaultPolicy(1)); err == nil {
		t.Error("nil cv accepted")
	}
	cx := core.NewContext()
	single := core.New[int](cx, core.DefaultPolicy("single"))
	single.AddVariant("only", func(int) float64 { return 1 })
	if _, err := Attach(single, DefaultPolicy(1)); err == nil {
		t.Error("single-variant cv accepted")
	}
	_, cv, _ := fixture(t)
	bad := DefaultPolicy(1)
	bad.ExploreRate = 1.5
	if _, err := Attach(cv, bad); err == nil {
		t.Error("ExploreRate 1.5 accepted")
	}
}

// TestExploreRateZeroIdentity is the inert-by-default property: an attached
// engine with ExploreRate 0 must be observationally identical to plain Call —
// same per-call results, same CallStats — while still counting samples.
func TestExploreRateZeroIdentity(t *testing.T) {
	cxA, cvA, s := fixture(t)
	cxB, cvB, _ := fixture(t)
	pol := testPolicy(42)
	pol.ExploreRate = 0
	eng, err := Attach(cvB, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ins := genInstances(200, 11)
	for i, in := range ins {
		vA, nA, errA := cvA.Call(in)
		vB, nB, errB := cvB.Call(in)
		if vA != vB || nA != nB || (errA == nil) != (errB == nil) {
			t.Fatalf("call %d diverged: plain=(%v,%q,%v) observed=(%v,%q,%v)",
				i, vA, nA, errA, vB, nB, errB)
		}
	}
	stA, stB := cxA.Stats(s.Name), cxB.Stats(s.Name)
	// TotalValue accumulates across randomly picked stat shards, so its float
	// summation order is not deterministic; compare it with a tolerance and
	// everything else exactly.
	if math.Abs(stA.TotalValue-stB.TotalValue) > 1e-9*math.Abs(stA.TotalValue) {
		t.Errorf("TotalValue diverged: %v vs %v", stA.TotalValue, stB.TotalValue)
	}
	stA.TotalValue, stB.TotalValue = 0, 0
	stA.FeatureSeconds, stB.FeatureSeconds = 0, 0
	if !reflect.DeepEqual(stA, stB) {
		t.Errorf("CallStats diverged:\nplain:    %+v\nobserved: %+v", stA, stB)
	}
	ast := eng.Stats()
	if ast.Calls != 200 || ast.Sampled != 200 {
		t.Errorf("engine counters: calls=%d sampled=%d, want 200/200", ast.Calls, ast.Sampled)
	}
	if ast.Explored != 0 || ast.Windows != 0 || ast.Drifts != 0 {
		t.Errorf("explore-rate-0 engine explored: %+v", ast)
	}
	if ast.State != "healthy" {
		t.Errorf("state = %q", ast.State)
	}
}

// driveDriftScenario runs the full healthy → drift → retrain → swap →
// recovered timeline on a fresh fixture and returns the engine (still
// attached; caller closes).
func driveDriftScenario(t *testing.T, seed int64) *Engine[autotuner.Instance] {
	t.Helper()
	_, cv, _ := fixture(t)
	eng, err := Attach(cv, testPolicy(seed))
	if err != nil {
		t.Fatal(err)
	}
	serve(t, cv, genInstances(30, 21))          // 3 healthy windows
	serve(t, cv, rotated(genInstances(90, 23))) // drift: detect, defer, retrain, swap, recover
	return eng
}

// TestDriftRetrainSwap is the subsystem's end-to-end: sustained drift is
// detected, the first retrain defers for lack of samples, the eventual
// retrain's candidate wins the holdout and is hot-swapped in as v2 carrying a
// compiled program (the offline v1 was exact), and the post-swap windows
// recover.
func TestDriftRetrainSwap(t *testing.T) {
	eng := driveDriftScenario(t, 42)
	defer eng.Close()

	st := eng.Stats()
	if st.Drifts != 1 {
		t.Errorf("drifts = %d, want 1", st.Drifts)
	}
	if st.RetrainsDeferred == 0 {
		t.Error("expected at least one deferred retrain (MinRetrainSamples gate)")
	}
	if st.Retrains != 1 || st.Swaps != 1 || st.Rollbacks != 0 {
		t.Errorf("retrains=%d swaps=%d rollbacks=%d, want 1/1/0", st.Retrains, st.Swaps, st.Rollbacks)
	}
	if st.ModelVersion != 2 {
		t.Errorf("installed model version = %d, want 2", st.ModelVersion)
	}
	if st.State != "healthy" {
		t.Errorf("final state = %q, want healthy", st.State)
	}
	if st.LastMismatchRate >= 0.5 {
		t.Errorf("post-swap mismatch rate %.2f still above threshold", st.LastMismatchRate)
	}
	if st.ExploreSeconds <= 0 {
		t.Error("exploration spent no budget")
	}

	// The event timeline must contain the state machine's transitions in
	// causal order: drift -> deferred -> retrain -> swap -> recovered.
	var order []EventKind
	for _, ev := range eng.Events() {
		switch ev.Kind {
		case EventDrift, EventDeferred, EventRetrain, EventSwap, EventRollback, EventRecovered:
			order = append(order, ev.Kind)
		}
	}
	want := []EventKind{EventDrift, EventDeferred, EventDeferred, EventRetrain, EventSwap, EventRecovered}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("event order = %v, want %v", order, want)
	}

	if m, _ := eng.cx.Model(eng.fn); m == nil || m.Compiled == nil {
		t.Error("accepted retrain installed a model without a compiled program")
	}
	for _, ev := range eng.Events() {
		if ev.Kind == EventSwap && !strings.HasSuffix(ev.Detail, "; distilled") {
			t.Errorf("swap event %q does not report the installed program", ev.Detail)
		}
	}
}

// TestReplayDeterminism: the same seed and input stream must reproduce the
// adaptation timeline event for event (the replay harness's contract).
func TestReplayDeterminism(t *testing.T) {
	render := func(eng *Engine[autotuner.Instance]) []string {
		defer eng.Close()
		evs := eng.Events()
		out := make([]string, len(evs))
		for i, ev := range evs {
			out[i] = ev.String()
		}
		return out
	}
	a := render(driveDriftScenario(t, 42))
	b := render(driveDriftScenario(t, 42))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("timelines diverged:\nrun A: %v\nrun B: %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty timeline")
	}
}

// TestRollbackKeepsIncumbent: with an unreachable acceptance margin the
// candidate must be rejected, the incumbent stays installed, and the
// detector backs off in StateDrifting.
func TestRollbackKeepsIncumbent(t *testing.T) {
	cx, cv, s := fixture(t)
	pol := testPolicy(42)
	pol.Retrain.MinImprovement = 10 // no candidate can clear this
	eng, err := Attach(cv, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	serve(t, cv, genInstances(30, 21))
	serve(t, cv, rotated(genInstances(60, 23)))

	st := eng.Stats()
	if st.Retrains == 0 || st.Rollbacks == 0 {
		t.Fatalf("retrains=%d rollbacks=%d, want both > 0", st.Retrains, st.Rollbacks)
	}
	if st.Swaps != 0 {
		t.Errorf("swaps = %d, want 0", st.Swaps)
	}
	if st.ModelVersion != 1 {
		t.Errorf("model version = %d, want incumbent v1", st.ModelVersion)
	}
	m, _ := cx.Model(s.Name)
	if m.Version() != 1 {
		t.Errorf("installed model version = %d, want 1", m.Version())
	}
	if st.State != "drifting" {
		t.Errorf("state = %q, want drifting (drift persists after rollback)", st.State)
	}
}

// TestPauseResume: a paused engine observes nothing (calls, samples and
// windows all frozen) and picks back up after Resume; both toggles land in
// the event timeline.
func TestPauseResume(t *testing.T) {
	_, cv, _ := fixture(t)
	eng, err := Attach(cv, testPolicy(42))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	serve(t, cv, genInstances(10, 21))
	eng.Pause()
	eng.Pause() // idempotent: one event
	before := eng.Stats()
	if !before.Paused {
		t.Error("Paused not reported")
	}
	serve(t, cv, genInstances(50, 22))
	mid := eng.Stats()
	if mid.Calls != before.Calls || mid.Explored != before.Explored {
		t.Errorf("paused engine observed calls: %+v -> %+v", before, mid)
	}
	eng.Resume()
	eng.Resume() // idempotent
	serve(t, cv, genInstances(10, 23))
	after := eng.Stats()
	if after.Calls != before.Calls+10 {
		t.Errorf("resumed calls = %d, want %d", after.Calls, before.Calls+10)
	}
	var paused, resumed int
	for _, ev := range eng.Events() {
		switch ev.Kind {
		case EventPaused:
			paused++
		case EventResumed:
			resumed++
		}
	}
	if paused != 1 || resumed != 1 {
		t.Errorf("paused/resumed events = %d/%d, want 1/1", paused, resumed)
	}
}

// TestCloseDetaches: after Close the engine observes nothing and the
// CodeVariant serves plain calls.
func TestCloseDetaches(t *testing.T) {
	_, cv, _ := fixture(t)
	eng, err := Attach(cv, testPolicy(42))
	if err != nil {
		t.Fatal(err)
	}
	serve(t, cv, genInstances(10, 21))
	eng.Close()
	eng.Close() // idempotent
	st := eng.Stats()
	serve(t, cv, genInstances(20, 22))
	if got := eng.Stats(); got.Calls != st.Calls {
		t.Errorf("closed engine kept observing: %d -> %d", st.Calls, got.Calls)
	}
}

// TestConcurrentAdaptationStress exercises the full loop under -race:
// concurrent Call traffic (healthy then drifted), background (asynchronous)
// retrains, and concurrent Stats/State/Events/Pause/Resume readers.
func TestConcurrentAdaptationStress(t *testing.T) {
	_, cv, _ := fixture(t)
	pol := testPolicy(42)
	pol.Synchronous = false // background retrains
	pol.MinRetrainSamples = 20
	eng, err := Attach(cv, pol)
	if err != nil {
		t.Fatal(err)
	}

	healthy := genInstances(200, 31)
	drifted := rotated(genInstances(400, 33))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, in := range healthy[w*50 : (w+1)*50] {
				cv.Call(in)
			}
			for _, in := range drifted[w*100 : (w+1)*100] {
				cv.Call(in)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = eng.Stats()
			_ = eng.State()
			_ = eng.Events()
			if i == 50 {
				eng.Pause()
			}
			if i == 60 {
				eng.Resume()
			}
		}
	}()
	wg.Wait()
	eng.Wait() // drain background retrains
	st := eng.Stats()
	if st.Explored == 0 || st.Windows == 0 {
		t.Errorf("stress run did no adaptation work: %+v", st)
	}
	eng.Close()
	// Serving continues after detach.
	serve(t, cv, healthy[:10])
}
