package core

// Tests for the tiered dispatch ladder (compiled artifact -> memo cache ->
// exact classifier): counter accounting, memo entries keyed by the model
// that computed them across hot-swaps, quarantine re-checks on memo hits,
// CallConcurrent-vs-serial identity, and the zero-allocation fast path. The
// swap stress test is the -race gatekeeper for the memo cache's lock-free
// publication protocol.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nitro/internal/ml"
)

// singleClassModel fits an SVM on a one-label corpus: it predicts that label
// for every input, which makes "which model served this call" observable from
// the dispatched variant alone.
func singleClassModel(tb testing.TB, label int) *ml.Model {
	tb.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x < 4; x++ {
		ds.Append([]float64{x}, label)
	}
	svm := ml.NewSVM(ml.LinearKernel{}, 1)
	if err := svm.Fit(ds); err != nil {
		tb.Fatal(err)
	}
	return &ml.Model{Classifier: svm}
}

// distilledConcurrentCV is buildConcurrentCV with a copy of its model that
// carries a distilled compiled artifact installed in its place.
func distilledConcurrentCV(tb testing.TB, policy TuningPolicy) (*CodeVariant[testInput], *ml.Model) {
	tb.Helper()
	cv, model := buildConcurrentCV(tb, policy)
	corpus := make([][]float64, 10)
	for x := 0; x < 10; x++ {
		corpus[x] = []float64{float64(x)}
	}
	c, err := ml.Distill(model, corpus, ml.DistillOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	distilled := *model
	distilled.Compiled = c
	if err := cv.Context().SetModel(policy.Name, &distilled); err != nil {
		tb.Fatal(err)
	}
	return cv, &distilled
}

func TestDispatchTierCounters(t *testing.T) {
	cv, model := buildConcurrentCV(t, DefaultPolicy("tiers"))
	cx := cv.Context()
	calls := 0
	// call dispatches x, expects variant want, and checks the cumulative
	// tier counters.
	call := func(step string, x float64, want string, exact, memo int) {
		t.Helper()
		calls++
		if _, name, err := cv.Call(testInput{X: x}); err != nil || name != want {
			t.Fatalf("%s: (%q, %v), want %s", step, name, err, want)
		}
		st := cx.Stats("tiers")
		if st.Calls != calls || st.ExactFallbacks != exact || st.MemoHits != memo || st.CompiledHits != 0 {
			t.Fatalf("%s: %+v, want %d exact + %d memo", step, st, exact, memo)
		}
	}
	// Admission: a vector's first miss leaves no entry, its second miss
	// stores the prediction, and every later call is a memo hit.
	call("first miss", 7, "large", 1, 0)
	call("second miss", 7, "large", 2, 0)
	for i := 1; i <= 4; i++ {
		call("repeat", 7, "large", 2, i)
	}
	// Entries are keyed by the model that computed them: after SetModel to
	// a distinct model, a vector admitted before the swap refills its entry
	// on its first miss after it.
	swapped := *model
	if err := cx.SetModel("tiers", &swapped); err != nil {
		t.Fatal(err)
	}
	call("refill after SetModel", 7, "large", 3, 4)
	call("hit after refill", 7, "large", 3, 5)
	// Reinstalling the same pointer keeps its entries: an installed model
	// is never mutated, so its predictions stay valid.
	if err := cx.SetModel("tiers", &swapped); err != nil {
		t.Fatal(err)
	}
	call("hit after reinstalling the same model", 7, "large", 3, 6)
	// A different input misses the memo and pays the exact path once more.
	call("distinct input", 1, "small", 4, 6)
}

// With a compiled artifact installed, the served variant choice must be
// identical to exact-only dispatch on every corpus input, and the compiled
// tier must actually decide calls. The exact twin serves the same model
// without its artifact, and each input is called once, so the memo (which
// admits a vector on its second miss) never answers and tiers stay visible.
func TestCompiledTierServesIdenticalChoices(t *testing.T) {
	cv, model := distilledConcurrentCV(t, DefaultPolicy("compiled"))

	cvExact, _ := buildConcurrentCV(t, DefaultPolicy("exactonly"))
	exact := *model
	exact.Compiled = nil
	if err := cvExact.Context().SetModel("exactonly", &exact); err != nil {
		t.Fatal(err)
	}

	for x := 0.0; x < 10; x++ {
		in := testInput{X: x}
		v1, n1, err1 := cv.Call(in)
		v2, n2, err2 := cvExact.Call(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if v1 != v2 || n1 != n2 {
			t.Fatalf("x=%v: compiled dispatch (%v,%q) != exact dispatch (%v,%q)", x, v1, n1, v2, n2)
		}
	}
	st := cv.Context().Stats("compiled")
	if st.CompiledHits+st.ExactFallbacks != 10 {
		t.Fatalf("tier counters don't cover all calls: %+v", st)
	}
	if st.CompiledHits == 0 {
		t.Fatalf("compiled tier never decided: %+v", st)
	}
	stE := cvExact.Context().Stats("exactonly")
	if stE.CompiledHits != 0 || stE.MemoHits != 0 || stE.ExactFallbacks != 10 {
		t.Fatalf("model without an artifact served a fast tier: %+v", stE)
	}
}

// SetModel must atomically invalidate every memoized prediction: a cached
// entry computed under the old model may never decide a call issued after the
// swap returns.
func TestMemoInvalidatedOnSetModel(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("swap"))
	cv.AddVariant("v0", func(testInput) float64 { return 0 })
	cv.AddVariant("v1", func(testInput) float64 { return 1 })
	if err := cv.SetDefault("v0"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})

	if err := cx.SetModel("swap", singleClassModel(t, 0)); err != nil {
		t.Fatal(err)
	}
	in := testInput{X: 5}
	for i := 0; i < 3; i++ { // the second miss stores, the third call hits
		if _, name, err := cv.Call(in); err != nil || name != "v0" {
			t.Fatalf("pre-swap call %d: (%q, %v), want v0", i, name, err)
		}
	}
	if st := cx.Stats("swap"); st.MemoHits != 1 {
		t.Fatalf("memo never engaged: %+v", st)
	}
	if err := cx.SetModel("swap", singleClassModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, name, err := cv.Call(in); err != nil || name != "v1" {
		t.Fatalf("post-swap call served (%q, %v), want v1 — stale memo entry dispatched", name, err)
	}
	if st := cx.Stats("swap"); st.ExactFallbacks != 3 {
		t.Fatalf("post-swap call did not re-predict: %+v", st)
	}
}

// A memo hit carries only the model's raw prediction; selection re-checks
// quarantine on every call. So when the memoized pick trips its breaker, the
// next call is still a memo hit, but it falls back without running the
// quarantined variant, and after recovery the same hit serves it again.
func TestMemoHitRechecksQuarantine(t *testing.T) {
	p := DefaultPolicy("qmemo")
	p.Quarantine = QuarantinePolicy{Threshold: 2, Window: time.Minute, Cooldown: 500 * time.Millisecond}
	cx := NewContext()
	cv := New[testInput](cx, p)
	cv.AddVariant("v0", func(testInput) float64 { return 0 })
	var down atomic.Bool
	var runs atomic.Int64
	v1 := cv.AddVariant("v1", func(testInput) float64 {
		runs.Add(1)
		if down.Load() {
			panic("down")
		}
		return 1
	})
	if err := cv.SetDefault("v0"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})
	if err := cx.SetModel("qmemo", singleClassModel(t, v1)); err != nil {
		t.Fatal(err)
	}

	in := testInput{X: 7}
	for i := 0; i < 3; i++ { // the second miss stores, the third call hits
		if _, name, err := cv.Call(in); err != nil || name != "v1" {
			t.Fatalf("warmup call %d: (%q, %v), want v1", i, name, err)
		}
	}
	st := cx.Stats("qmemo")
	if st.MemoHits != 1 || st.ExactFallbacks != 2 {
		t.Fatalf("warmup: %+v, want 2 exact + 1 memo", st)
	}

	// Trip v1's breaker through the exploration path (not a served call).
	down.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := cv.ObserveVariant(v1, in); err == nil {
			t.Fatal("v1 should fail while down")
		}
	}
	if st = cx.Stats("qmemo"); st.Quarantined != 1 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	before := runs.Load()
	if _, name, err := cv.Call(in); err != nil || name != "v0" {
		t.Fatalf("call on a quarantined pick: (%q, %v), want fallback v0", name, err)
	}
	if got := runs.Load(); got != before {
		t.Fatalf("quarantined v1 ran %d time(s) on a memo hit", got-before)
	}
	if st = cx.Stats("qmemo"); st.MemoHits != 2 || st.ExactFallbacks != 2 || st.DefaultFallbacks != 1 {
		t.Fatalf("post-trip call: %+v, want a memo hit that fell back", st)
	}

	// Recover v1 with a successful half-open probe once the cooldown ends.
	down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for !cv.Selectable(v1, in) {
		if time.Now().After(deadline) {
			t.Fatal("cooldown never elapsed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cv.ObserveVariant(v1, in); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if st = cx.Stats("qmemo"); st.Recoveries != 1 {
		t.Fatalf("probe did not recover v1: %+v", st)
	}
	if _, name, err := cv.Call(in); err != nil || name != "v1" {
		t.Fatalf("post-recovery call: (%q, %v), want v1", name, err)
	}
	if st = cx.Stats("qmemo"); st.MemoHits != 3 || st.ExactFallbacks != 2 {
		t.Fatalf("post-recovery call: %+v, want a third memo hit", st)
	}
}

// Swap stress: goroutines hammer one memoized input while another goroutine
// hot-swaps between two single-class models. A seqlock-style phase counter
// brackets each call; whenever the phase is stable (even and unchanged across
// the call), the dispatched variant must be the one the installed model of
// that phase predicts — i.e. no call after SetModel returns may be decided by
// a stale cached prediction. Run under -race this also polices the memo
// cache's publication protocol. The swapper waits for a new memo hit before
// each swap, so the loop serves at least one hit per swap instead of racing
// through all its swaps between two calls.
func TestMemoSwapStressNoStaleDispatch(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("stress"))
	cv.AddVariant("v0", func(testInput) float64 { return 0 })
	cv.AddVariant("v1", func(testInput) float64 { return 1 })
	if err := cv.SetDefault("v0"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})

	models := [2]*ml.Model{singleClassModel(t, 0), singleClassModel(t, 1)}
	if err := cx.SetModel("stress", models[0]); err != nil {
		t.Fatal(err)
	}

	// phase protocol: odd while a swap is in flight; after 2k total
	// increments, models[k%2] is installed (k complete swaps, starting from
	// models[0] at phase 0... swap j installs models[j%2]).
	var phase atomic.Uint64
	var stale atomic.Int64
	done := make(chan struct{})

	const swaps = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for j := 1; j <= swaps; j++ {
			hits := cx.Stats("stress").MemoHits
			deadline := time.Now().Add(30 * time.Second)
			for cx.Stats("stress").MemoHits == hits {
				if time.Now().After(deadline) {
					t.Errorf("swap %d: no memo hit within 30s", j)
					return
				}
				runtime.Gosched()
			}
			phase.Add(1) // odd: swap in flight
			if err := cx.SetModel("stress", models[j%2]); err != nil {
				t.Error(err)
				return
			}
			phase.Add(1) // even: swap j complete
		}
	}()

	callers := 4
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			in := testInput{X: 5}
			for {
				select {
				case <-done:
					return
				default:
				}
				p1 := phase.Load()
				if p1%2 != 0 {
					continue // swap in flight; outcome is legitimately either
				}
				_, name, err := cv.Call(in)
				if err != nil {
					t.Error(err)
					return
				}
				if p2 := phase.Load(); p2 == p1 {
					want := "v0"
					if (p1/2)%2 == 1 {
						want = "v1"
					}
					if name != want {
						stale.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := stale.Load(); n != 0 {
		t.Fatalf("%d calls in a stable phase dispatched the other model's pick — stale memo served after swap", n)
	}
	if st := cx.Stats("stress"); st.MemoHits < swaps {
		t.Fatalf("stress loop hit the memo tier %d times over %d swaps: %+v", st.MemoHits, swaps, st)
	}
}

// CallConcurrent must produce per-input results identical to N independent
// serial calls, through the same tiers. The distilled program decides every
// one of these inputs, so the compiled walk serves both batches and the
// memo, which sits behind it, is never consulted.
func TestCallConcurrentBatchedMatchesSerialTiers(t *testing.T) {
	cv, _ := distilledConcurrentCV(t, DefaultPolicy("batch"))
	cvSerial, _ := distilledConcurrentCV(t, DefaultPolicy("batch-serial"))

	ins := make([]testInput, 64)
	for i := range ins {
		ins[i] = testInput{X: float64(i % 8)}
	}
	for round := 0; round < 2; round++ {
		res := cv.CallConcurrent(ins, 4)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d result %d: %v", round, i, r.Err)
			}
			v, name, err := cvSerial.Call(ins[i])
			if err != nil {
				t.Fatal(err)
			}
			if r.Value != v || r.Variant != name {
				t.Fatalf("round %d input %d: batch (%v,%q) != serial (%v,%q)", round, i, r.Value, r.Variant, v, name)
			}
		}
	}
	st := cv.Context().Stats("batch")
	ser := cvSerial.Context().Stats("batch-serial")
	if st.Calls != 2*len(ins) {
		t.Fatalf("batch recorded %d calls, want %d", st.Calls, 2*len(ins))
	}
	if st.MemoHits != ser.MemoHits || st.CompiledHits != ser.CompiledHits || st.ExactFallbacks != ser.ExactFallbacks {
		t.Fatalf("batch tiers %+v differ from serial tiers %+v", st, ser)
	}
	if st.CompiledHits != 2*len(ins) {
		t.Fatalf("both batches should be served by the compiled tier: %+v", st)
	}
}

// The steady-state Call fast path (a repeat input the compiled walk
// decides) must not allocate.
func TestCallFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	cv, _ := distilledConcurrentCV(t, DefaultPolicy("zeroalloc"))
	in := testInput{X: 7}
	for i := 0; i < 2; i++ { // warm pools
		if _, _, err := cv.Call(in); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, _, err := cv.Call(in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("repeat Call allocates %v per run, want 0", n)
	}
}

// A Call on an input never seen before must not allocate either.
func TestCallNovelInputsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	cv, _ := distilledConcurrentCV(t, DefaultPolicy("novel"))
	x := 0.0
	if n := testing.AllocsPerRun(500, func() {
		x += 0.25
		if _, _, err := cv.Call(testInput{X: x}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("novel-input Call allocates %v per run, want 0", n)
	}
	if st := cv.Context().Stats("novel"); st.MemoHits != 0 {
		t.Fatalf("novel inputs hit the memo: %+v", st)
	}
}

// Scan resistance: with a single memo slot, a one-off miss of another vector
// must not evict the resident entry.
func TestMemoOneOffMissKeepsResidentEntry(t *testing.T) {
	cv, _ := buildConcurrentCV(t, DefaultPolicy("scan"))
	cv.memo = newMemoCache(1)
	cx := cv.Context()
	a, b := testInput{X: 7}, testInput{X: 1}
	for i := 0; i < 3; i++ {
		if _, name, err := cv.Call(a); err != nil || name != "large" {
			t.Fatalf("warmup call %d: (%q, %v), want large", i, name, err)
		}
	}
	hits := cx.Stats("scan").MemoHits
	if hits == 0 {
		t.Fatalf("vector A never became resident: %+v", cx.Stats("scan"))
	}
	if _, name, err := cv.Call(b); err != nil || name != "small" {
		t.Fatalf("one-off call: (%q, %v), want small", name, err)
	}
	if _, name, err := cv.Call(a); err != nil || name != "large" {
		t.Fatalf("resident call: (%q, %v), want large", name, err)
	}
	if st := cx.Stats("scan"); st.MemoHits != hits+1 {
		t.Fatalf("one-off miss of B evicted A: %+v, want %d memo hits", st, hits+1)
	}
}
