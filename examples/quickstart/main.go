// Quickstart: tune a two-variant function end to end with the public nitro
// API, using real wall-clock timings.
//
// The tunable computation sorts an []int. Variant "insertion" wins on small
// or nearly-sorted inputs; variant "std" (pdqsort) wins elsewhere. Nitro
// learns the boundary from two features — input length and a sampled
// disorder estimate — and then dispatches adaptively.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nitro"
)

// input is the tunable function's argument type.
type input struct {
	data []int
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// timed runs f on a copy of the input and returns elapsed seconds — the
// value Nitro minimizes, per the paper's convention that variants return
// their own cost.
func timed(f func([]int)) nitro.VariantFn[input] {
	return func(in input) float64 {
		buf := append([]int(nil), in.data...)
		start := time.Now()
		f(buf)
		return time.Since(start).Seconds()
	}
}

// disorder samples adjacent pairs and returns the fraction out of order.
func disorder(in input) float64 {
	n := len(in.data)
	if n < 2 {
		return 0
	}
	bad, samples := 0, 0
	step := n/512 + 1
	for i := 0; i+1 < n; i += step {
		samples++
		if in.data[i] > in.data[i+1] {
			bad++
		}
	}
	return float64(bad) / float64(samples)
}

// gen builds an input: swapFrac < 1 yields a sorted array with that fraction
// of local swaps (insertion-sort territory); swapFrac >= 1 yields a full
// shuffle.
func gen(rng *rand.Rand, n int, swapFrac float64) input {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	if swapFrac >= 1 {
		rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		return input{data: a}
	}
	for s := 0; s < int(float64(n)*swapFrac/2); s++ {
		i := rng.Intn(n - 1)
		a[i], a[i+1] = a[i+1], a[i]
	}
	return input{data: a}
}

func main() {
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[input](cx, nitro.DefaultPolicy("sortints"))
	cv.AddVariant("insertion", timed(insertionSort))
	cv.AddVariant("std", timed(func(a []int) { sort.Ints(a) }))
	if err := cv.SetDefault("std"); err != nil {
		panic(err)
	}
	cv.AddInputFeature(nitro.Feature[input]{Name: "n", Eval: func(in input) float64 { return float64(len(in.data)) }})
	cv.AddInputFeature(nitro.Feature[input]{Name: "disorder", Eval: disorder})

	// Training corpus: sizes and disorder levels spanning both regimes.
	// Exhaustive search runs every variant on every input, so shuffled
	// inputs are capped where insertion sort's quadratic cost stays sane.
	rng := rand.New(rand.NewSource(1))
	var train []input
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		for _, frac := range []float64{0, 0.02, 0.2, 1.0} {
			train = append(train, gen(rng, n, frac))
		}
	}
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
	rep, err := tuner.Tune(train)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tuned on %d inputs; label distribution %v; training accuracy %.0f%%\n",
		len(train), rep.LabelCounts, 100*rep.TrainAccuracy)

	// Deployment: Nitro picks per input.
	tests := []struct {
		name string
		in   input
	}{
		{"tiny shuffled", gen(rng, 128, 1.0)},
		{"small nearly-sorted", gen(rng, 2048, 0.005)},
		{"large nearly-sorted", gen(rng, 16384, 0.002)},
		{"large shuffled", gen(rng, 16384, 1.0)},
	}
	for _, tc := range tests {
		secs, chosen, err := cv.Call(tc.in)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s -> %-9s (%.3f ms)\n", tc.name, chosen, secs*1e3)
	}

	// Concurrent deployment: a tuned CodeVariant is safe to share, so a
	// whole batch can be fanned over all cores in one call ...
	batch := make([]input, 32)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = gen(rng, 8192, 0.002)
		} else {
			batch[i] = gen(rng, 8192, 1.0)
		}
	}
	counts := map[string]int{}
	for i, r := range cv.CallConcurrent(batch, 0) {
		if r.Err != nil {
			panic(fmt.Sprintf("batch input %d: %v", i, r.Err))
		}
		counts[r.Variant]++
	}
	fmt.Printf("concurrent batch of %d: %v\n", len(batch), counts)

	// ... and feature evaluation can overlap other work: FixInputs returns a
	// single-shot future at once and evaluates the features the tuned model
	// reads for that input on a goroutine.
	f := cv.FixInputs(gen(rng, 16384, 0.001))
	// (other work would happen here while features evaluate)
	if _, chosen, err := f.Call(); err != nil {
		panic(err)
	} else {
		fmt.Printf("async future            -> %s\n", chosen)
	}

	stats := cx.Stats("sortints")
	fmt.Printf("calls: %d, per-variant: %v\n", stats.Calls, stats.PerVariant)

	// Fault tolerance: dispatch survives broken variants. Build a second
	// tunable function whose preferred variant panics 30% of the time, with a
	// quarantine breaker: the runtime recovers each panic, falls back to the
	// healthy variant, and after repeated failures stops selecting the flaky
	// one altogether (re-probing it after a cooldown).
	fp := nitro.DefaultPolicy("sortints-faulty")
	fp.Quarantine = nitro.DefaultQuarantine()
	fcv := nitro.NewCodeVariant[input](cx, fp)
	flaky := nitro.WrapFault(timed(insertionSort), nitro.FaultConfig{PanicRate: 0.3, Seed: 5})
	fcv.AddVariant("flaky-insertion", flaky)
	fcv.AddVariant("std", timed(func(a []int) { sort.Ints(a) }))
	if err := fcv.SetDefault("flaky-insertion"); err != nil {
		panic(err)
	}
	fcv.AddInputFeature(nitro.Feature[input]{Name: "n", Eval: func(in input) float64 { return float64(len(in.data)) }})
	fcv.AddInputFeature(nitro.Feature[input]{Name: "disorder", Eval: disorder})
	for i := 0; i < 50; i++ {
		if _, _, err := fcv.Call(gen(rng, 512, 0.01)); err != nil {
			// Even total variant failure surfaces as a typed error, never a
			// crash.
			var ve *nitro.VariantError
			if !errors.As(err, &ve) {
				panic(err)
			}
		}
	}
	fstats := cx.Stats("sortints-faulty")
	fmt.Printf("fault demo: %d calls served, %d panics recovered, %d fallback hops, %d quarantine trips, %d recoveries\n",
		fstats.Calls, fstats.Panics, fstats.Fallbacks, fstats.Quarantined, fstats.Recoveries)
}
