// Example histogram builds a CUB-style histogram library whose binning
// strategy and grid mapping are selected by Nitro from three cheap input
// features — the paper's fourth benchmark. Uniform data keeps the atomic
// variants in play; skewed data collapses them and the model switches to the
// sort-based variants.
//
// Run with: go run ./examples/histogram
package main

import (
	"fmt"
	"math/rand"

	"nitro"
	"nitro/internal/gpusim"
	"nitro/internal/histogram"
)

func workload(kind string, n int, rng *rand.Rand) *histogram.Problem {
	var data []float64
	switch kind {
	case "uniform":
		data = histogram.Uniform(n, rng.Int63())
	case "gaussian":
		data = histogram.Gaussian(n, rng.Int63())
	case "hotspot":
		data = histogram.HotSpot(n, 0.85, rng.Int63())
	default: // patchy
		data = histogram.Patchy(n, histogram.TileSize, rng.Int63())
	}
	p, err := histogram.NewProblem(data, 256)
	if err != nil {
		panic(err)
	}
	return p
}

func main() {
	dev := gpusim.Fermi()
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[*histogram.Problem](cx, nitro.DefaultPolicy("histogram"))
	for _, v := range histogram.Variants() {
		v := v
		cv.AddVariant(v.Name, func(p *histogram.Problem) float64 {
			res, err := v.Run(p, dev)
			if err != nil {
				panic(err)
			}
			return res.Seconds
		})
	}
	if err := cv.SetDefault("Sort-ES"); err != nil {
		panic(err)
	}
	names := histogram.FeatureNames()
	for i := range names {
		i := i
		cv.AddInputFeature(nitro.Feature[*histogram.Problem]{
			Name: names[i],
			Eval: func(p *histogram.Problem) float64 {
				return histogram.ComputeFeatures(p, histogram.DefaultSubSample(len(p.Data))).Vector()[i]
			},
		})
	}

	rng := rand.New(rand.NewSource(13))
	var train []*histogram.Problem
	for i := 0; i < 10; i++ {
		for _, kind := range []string{"uniform", "gaussian", "hotspot", "patchy"} {
			train = append(train, workload(kind, 16384*(1+i%4), rng))
		}
	}
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
	rep, err := tuner.Tune(train)
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained on %d inputs: labels %v\n", len(train), rep.LabelCounts)

	fmt.Printf("%-10s -> %-24s %10s\n", "input", "chosen", "time")
	for _, kind := range []string{"uniform", "gaussian", "hotspot", "patchy"} {
		p := workload(kind, 65536, rng)
		secs, chosen, err := cv.Call(p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s -> %-24s %7.3f ms\n", kind, chosen, secs*1e3)
	}
	stats := cx.Stats("histogram")
	fmt.Printf("selection counts: %v\n", stats.PerVariant)
}
