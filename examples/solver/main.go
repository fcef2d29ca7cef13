// Example solver builds a CULA-style sparse linear-solver library whose
// (solver, preconditioner) combination is selected by Nitro from numeric
// matrix features — the paper's second benchmark. Non-converging runs return
// +Inf, so training labels automatically avoid them and the tuned library
// picks converging combinations for unseen systems.
//
// Run with: go run ./examples/solver
package main

import (
	"fmt"
	"math"
	"math/rand"

	"nitro"
	"nitro/internal/gpusim"
	"nitro/internal/solver"
	"nitro/internal/sparse"
)

func system(kind string, n int, rng *rand.Rand) *solver.Problem {
	var m *sparse.CSR
	switch kind {
	case "spd-easy":
		side := int(math.Sqrt(float64(n)))
		m = sparse.Stencil2D(side, side)
	case "spd-tight":
		m = sparse.SPD(sparse.BlockClustered(n, 6, 24, rng.Int63()), 1.03, rng.Int63())
	default: // nonsymmetric
		m = sparse.RandomUniform(n, n*4, rng.Int63())
	}
	b := make([]float64, m.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	p, err := solver.NewProblem(m, b)
	if err != nil {
		panic(err)
	}
	return p
}

func main() {
	dev := gpusim.Fermi()
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[*solver.Problem](cx, nitro.DefaultPolicy("solve"))
	for _, v := range solver.Variants() {
		v := v
		cv.AddVariant(v.Name, func(p *solver.Problem) float64 {
			res, err := v.Run(p, dev)
			return solver.Cost(res, err) // +Inf when setup fails or no convergence
		})
	}
	if err := cv.SetDefault("BiCGStab-Jacobi"); err != nil {
		panic(err)
	}
	names := solver.FeatureNames()
	for i := range names {
		i := i
		cv.AddInputFeature(nitro.Feature[*solver.Problem]{
			Name: names[i],
			Eval: func(p *solver.Problem) float64 { return solver.ComputeFeatures(p.A).Vector()[i] },
		})
	}

	rng := rand.New(rand.NewSource(5))
	var train []*solver.Problem
	for i := 0; i < 8; i++ {
		train = append(train,
			system("spd-easy", 150+20*i, rng),
			system("spd-tight", 150+20*i, rng),
			system("nonsym", 150+20*i, rng))
	}
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
	rep, err := tuner.Tune(train)
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained on %d systems: labels %v, accuracy %.0f%%\n",
		len(train), rep.LabelCounts, 100*rep.TrainAccuracy)

	fmt.Printf("%-12s -> %-18s %12s\n", "system", "chosen", "solve time")
	for _, kind := range []string{"spd-easy", "spd-tight", "nonsym"} {
		for trial := 0; trial < 2; trial++ {
			p := system(kind, 220+30*trial, rng)
			cost, chosen, err := cv.Call(p)
			if err != nil {
				panic(err)
			}
			status := fmt.Sprintf("%8.3f ms", cost*1e3)
			if math.IsInf(cost, 1) {
				status = "  did not converge"
			}
			fmt.Printf("%-12s -> %-18s %s\n", kind, chosen, status)
		}
	}
	stats := cx.Stats("solve")
	fmt.Printf("selection counts: %v (fallbacks: %d)\n", stats.PerVariant, stats.DefaultFallbacks)
}
