// Example bfs tunes breadth-first-search variant selection over the six
// Merrill-style traversal kernels and compares the Nitro-tuned selection
// with the hand-built Hybrid baseline — the comparison the paper reports as
// Nitro beating Hybrid by ~11% on average.
//
// Run with: go run ./examples/bfs
package main

import (
	"fmt"
	"math/rand"

	"nitro"
	"nitro/internal/gpusim"
	"nitro/internal/graph"
)

func problems(rng *rand.Rand, n int) []*graph.Problem {
	var out []*graph.Problem
	mk := func(g *graph.Graph) {
		sources := []int{rng.Intn(g.V), rng.Intn(g.V), rng.Intn(g.V)}
		p, err := graph.NewProblem(g, sources)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			mk(graph.Grid2D(60+10*i%50, 60+10*i%50))
		case 1:
			mk(graph.RMAT(10+i%3, 12+4*(i%3), rng.Int63()))
		case 2:
			mk(graph.RandomRegular(4000+500*(i%4), 3+2*(i%5), rng.Int63()))
		case 3:
			mk(graph.SmallWorld(5000, 2+i%3, 0.1, rng.Int63()))
		default:
			mk(graph.Star(4+i%4, 600, rng.Int63()))
		}
	}
	return out
}

func main() {
	dev := gpusim.Fermi()
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[*graph.Problem](cx, nitro.DefaultPolicy("bfs"))
	for _, v := range graph.Variants() {
		v := v
		cv.AddVariant(v.Name, func(p *graph.Problem) float64 {
			res, err := v.Run(p, dev)
			if err != nil {
				panic(err)
			}
			return res.Seconds
		})
	}
	if err := cv.SetDefault("CE-Fused"); err != nil {
		panic(err)
	}
	names := graph.FeatureNames()
	for i := range names {
		i := i
		cv.AddInputFeature(nitro.Feature[*graph.Problem]{
			Name: names[i],
			Eval: func(p *graph.Problem) float64 { return graph.ComputeFeatures(p.G).Vector()[i] },
		})
	}

	rng := rand.New(rand.NewSource(3))
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
	rep, err := tuner.Tune(problems(rng, 20))
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained BFS model on 20 graphs: labels %v\n", rep.LabelCounts)

	// Held-out graphs: Nitro vs Hybrid, in TEPS.
	var nitroSum, hybridSum float64
	tests := problems(rng, 15)
	fmt.Printf("%-12s %-14s %12s %12s\n", "graph", "chosen", "nitro TEPS", "hybrid TEPS")
	for i, p := range tests {
		secs, chosen, err := cv.Call(p)
		if err != nil {
			panic(err)
		}
		h, err := graph.Hybrid(p, dev)
		if err != nil {
			panic(err)
		}
		nitroTEPS := float64(p.Edges()) / secs
		fmt.Printf("graph-%-6d %-14s %12.3g %12.3g\n", i, chosen, nitroTEPS, h.TEPS())
		nitroSum += nitroTEPS
		hybridSum += h.TEPS()
	}
	fmt.Printf("mean TEPS: nitro %.3g vs hybrid %.3g (%.2fx)\n",
		nitroSum/float64(len(tests)), hybridSum/float64(len(tests)), nitroSum/hybridSum)
}
