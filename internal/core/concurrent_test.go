package core

// Stress tests and throughput benchmarks for the concurrency-safe deployment
// runtime: N goroutines hammering one shared CodeVariant with Call,
// FixInputs/CallFixed, SetModel hot-swaps and Stats snapshots (run under
// -race in CI), plus a determinism test that concurrent statistics sum to
// exactly the serial statistics, and BenchmarkCallParallel proving the
// predict path scales with GOMAXPROCS.

import (
	"sync"
	"testing"

	"nitro/internal/ml"
)

// buildConcurrentCV constructs a two-variant tunable function with integer-
// valued costs/values (so statistic sums are exact under any addition order)
// and returns it with a trained model for the x<4.5 boundary.
func buildConcurrentCV(tb testing.TB, policy TuningPolicy) (*CodeVariant[testInput], *ml.Model) {
	tb.Helper()
	cx := NewContext()
	cv := New[testInput](cx, policy)
	cv.AddVariant("small", func(in testInput) float64 { return 1 + in.X })
	cv.AddVariant("large", func(in testInput) float64 { return 10 - in.X })
	if err := cv.SetDefault("small"); err != nil {
		tb.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{
		Name: "x",
		Eval: func(in testInput) float64 { return in.X },
		Cost: func(testInput) float64 { return 1 }, // integer: exact sums
	})

	ds := &ml.Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		if x > 4.5 {
			label = 1
		}
		ds.Append([]float64{x}, label)
	}
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		tb.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		tb.Fatal(err)
	}
	model := &ml.Model{Classifier: svm, Scaler: scaler}
	cx.SetModel(policy.Name, model)
	return cv, model
}

// TestConcurrentRuntimeStress mixes every runtime operation across >= 8
// goroutines on one shared CodeVariant. The race detector polices memory
// safety; the final assertions police accounting: every successful call is
// counted exactly once, no matter how the operations interleaved.
func TestConcurrentRuntimeStress(t *testing.T) {
	cv, model := buildConcurrentCV(t, DefaultPolicy("stress"))
	cx := cv.Context()

	const goroutines = 12
	const iters = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				in := testInput{X: float64((g + i) % 10)}
				switch i % 4 {
				case 0: // synchronous dispatch
					if _, _, err := cv.Call(in); err != nil {
						t.Errorf("Call: %v", err)
						return
					}
				case 1: // per-call future, prefetched in the background
					f := cv.FixInputs(in)
					if _, _, err := cv.CallFixed(f); err != nil {
						t.Errorf("CallFixed: %v", err)
						return
					}
				case 2: // model hot-swap mid-traffic (reinstall / uninstall)
					if i%8 == 2 {
						cx.SetModel("stress", nil)
					} else {
						cx.SetModel("stress", model)
					}
					if _, _, err := cv.Call(in); err != nil {
						t.Errorf("Call after swap: %v", err)
						return
					}
				case 3: // stats snapshot concurrent with recording
					st := cx.Stats("stress")
					if st.Calls < 0 || st.TotalValue < 0 {
						t.Errorf("torn snapshot: %+v", st)
						return
					}
					if _, _, err := cv.Call(in); err != nil {
						t.Errorf("Call: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := cx.Stats("stress")
	if want := goroutines * iters; st.Calls != want {
		t.Errorf("Calls = %d, want %d (every successful call counted exactly once)", st.Calls, want)
	}
	var perVariant int
	for _, n := range st.PerVariant {
		perVariant += n
	}
	if perVariant != st.Calls {
		t.Errorf("per-variant counts sum to %d, want %d", perVariant, st.Calls)
	}
	cx.SetModel("stress", model)
	if m, ok := cx.Model("stress"); !ok || m != model {
		t.Error("model not observable after the final install")
	}
}

// TestConcurrentStatsMatchSerial runs the same workload serially and
// concurrently and requires bit-identical aggregate statistics: with
// integer-valued costs and values the shard sums are exact, so the sharded
// counters must reproduce the serial totals regardless of scheduling.
func TestConcurrentStatsMatchSerial(t *testing.T) {
	inputs := make([]testInput, 400)
	for i := range inputs {
		inputs[i] = testInput{X: float64(i % 10)}
	}

	run := func(parallelism int) CallStats {
		cv, _ := buildConcurrentCV(t, DefaultPolicy("det"))
		res := cv.CallConcurrent(inputs, parallelism)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("input %d: %v", i, r.Err)
			}
		}
		return cv.Context().Stats("det")
	}

	serial := run(1)
	if serial.Calls != len(inputs) {
		t.Fatalf("serial calls = %d", serial.Calls)
	}
	for _, workers := range []int{0, 4, 16} {
		got := run(workers)
		if got.Calls != serial.Calls ||
			got.DefaultFallbacks != serial.DefaultFallbacks ||
			got.TotalValue != serial.TotalValue ||
			got.FeatureSeconds != serial.FeatureSeconds {
			t.Errorf("workers=%d: stats %+v differ from serial %+v", workers, got, serial)
		}
		for name, n := range serial.PerVariant {
			if got.PerVariant[name] != n {
				t.Errorf("workers=%d: PerVariant[%q] = %d, want %d", workers, name, got.PerVariant[name], n)
			}
		}
	}
}

// TestConcurrentFixedHandles verifies that many in-flight futures on one
// CodeVariant stay independent: each goroutine's CallFixed must execute on
// its own fixed input even while other futures resolve around it.
func TestConcurrentFixedHandles(t *testing.T) {
	cv, _ := buildConcurrentCV(t, DefaultPolicy("handles"))

	const goroutines = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := float64((g*7 + i) % 10)
				f := cv.FixInputs(testInput{X: x})
				val, name, err := f.Call()
				if err != nil {
					t.Errorf("g%d: %v", g, err)
					return
				}
				// The value function is deterministic in the input, so the
				// returned value proves which input the variant executed on.
				want := 1 + x
				if name == "large" {
					want = 10 - x
				}
				if val != want {
					t.Errorf("g%d: executed on the wrong input: %q returned %v for x=%v", g, name, val, x)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkCallSerial is the single-goroutine baseline for the selection hot
// path (feature eval + SVM predict + constraint check + stats record).
func BenchmarkCallSerial(b *testing.B) {
	cv, _ := buildConcurrentCV(b, DefaultPolicy("bench"))
	in := testInput{X: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cv.Call(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallParallel hammers one shared CodeVariant from GOMAXPROCS
// goroutines via b.RunParallel. With the lock-free model pointer and sharded
// statistics the per-op time should approach BenchmarkCallSerial divided by
// the core count — any global mutex on the predict path would flatten this
// to serial throughput.
func BenchmarkCallParallel(b *testing.B) {
	cv, _ := buildConcurrentCV(b, DefaultPolicy("bench"))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		in := testInput{X: 7}
		for pb.Next() {
			if _, _, err := cv.Call(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCallFixedParallel measures the per-call future path under the
// same parallel load (allocate handle, background prefetch, barrier,
// dispatch).
func BenchmarkCallFixedParallel(b *testing.B) {
	cv, _ := buildConcurrentCV(b, DefaultPolicy("bench"))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		in := testInput{X: 7}
		for pb.Next() {
			f := cv.FixInputs(in)
			if _, _, err := cv.CallFixed(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCallConcurrentBatch measures CallConcurrent over internal/par.
func BenchmarkCallConcurrentBatch(b *testing.B) {
	cv, _ := buildConcurrentCV(b, DefaultPolicy("bench"))
	ins := make([]testInput, 1024)
	for i := range ins {
		ins[i] = testInput{X: float64(i % 10)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cv.CallConcurrent(ins, 0)
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}
