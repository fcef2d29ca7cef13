// Example sort builds an adaptive sorting library over the paper's three
// variants — ModernGPU-style Merge and Locality sorts and a CUB-style Radix
// sort — tuned on 32- and 64-bit float keys across the paper's three input
// categories (uniform random, reverse-sorted, almost-sorted). One combined
// model serves both key widths, as in the paper.
//
// Run with: go run ./examples/sort
package main

import (
	"fmt"
	"math/rand"

	"nitro"
	"nitro/internal/gpusim"
	"nitro/internal/sortbench"
)

func mkProblem(category string, n, bits int, seed int64) *sortbench.Problem {
	var keys []float64
	switch category {
	case "uniform":
		keys = sortbench.UniformKeys(n, seed)
	case "reverse":
		keys = sortbench.ReverseSortedKeys(n, seed)
	default:
		keys = sortbench.AlmostSortedKeys(n, 0.22, 64, seed)
	}
	p, err := sortbench.NewProblem(keys, bits)
	if err != nil {
		panic(err)
	}
	return p
}

func main() {
	dev := gpusim.Fermi()
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[*sortbench.Problem](cx, nitro.DefaultPolicy("sort"))
	for _, v := range sortbench.Variants() {
		v := v
		cv.AddVariant(v.Name, func(p *sortbench.Problem) float64 {
			res, err := v.Run(p, dev)
			if err != nil {
				panic(err)
			}
			return res.Seconds
		})
	}
	if err := cv.SetDefault("Merge"); err != nil {
		panic(err)
	}
	names := sortbench.FeatureNames()
	for i := range names {
		i := i
		cv.AddInputFeature(nitro.Feature[*sortbench.Problem]{
			Name: names[i],
			Eval: func(p *sortbench.Problem) float64 { return sortbench.ComputeFeatures(p).Vector()[i] },
		})
	}

	// Combined training set across widths, categories and sizes.
	rng := rand.New(rand.NewSource(11))
	var train []*sortbench.Problem
	for _, bits := range []int{32, 64} {
		for _, cat := range []string{"uniform", "reverse", "almost"} {
			for _, n := range []int{32768, 131072, 262144} {
				train = append(train, mkProblem(cat, n, bits, rng.Int63()))
			}
		}
	}
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
	rep, err := tuner.Tune(train)
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained combined 32/64-bit model on %d sequences: labels %v\n", len(train), rep.LabelCounts)

	fmt.Printf("%-10s %6s %9s -> %-9s %10s\n", "category", "bits", "keys", "chosen", "time")
	for _, bits := range []int{32, 64} {
		for _, cat := range []string{"uniform", "reverse", "almost"} {
			p := mkProblem(cat, 200000, bits, rng.Int63())
			secs, chosen, err := cv.Call(p)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-10s %6d %9d -> %-9s %8.3f ms\n", cat, bits, len(p.Keys), chosen, secs*1e3)
		}
	}
	stats := cx.Stats("sort")
	fmt.Printf("selection counts: %v\n", stats.PerVariant)
}
