// Example spmv mirrors the paper's Fig. 2: a "MySparse" library whose
// SparseMatVec entry point is tuned by Nitro over the six CUSP-style format
// variants (CSR-Vec, DIA, ELL and their texture-cached twins), with the DIA
// and ELL variants guarded by fill-in cutoff constraints. End users of
// MySparse never see a Nitro construct.
//
// Run with: go run ./examples/spmv
package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"nitro"
	"nitro/internal/gpusim"
	"nitro/internal/sparse"
)

// mySparse is the library of Fig. 2, holding the tuned code variant.
type mySparse struct {
	cx  *nitro.Context
	cv  *nitro.CodeVariant[*sparse.Problem]
	dev *gpusim.Device
}

// newMySparse registers variants, features and constraints — the expert-
// programmer side of the paper's interface.
func newMySparse(dev *gpusim.Device) *mySparse {
	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[*sparse.Problem](cx, nitro.DefaultPolicy("spmv"))
	for _, v := range sparse.Variants() {
		v := v
		cv.AddVariant(v.Name, func(p *sparse.Problem) float64 {
			res, err := v.Run(p, dev)
			if err != nil {
				panic(err) // constraints keep infeasible variants out
			}
			return res.Seconds
		})
		if v.Constraint != nil {
			if err := cv.AddConstraint(v.Name, nitro.ConstraintFn[*sparse.Problem](v.Constraint)); err != nil {
				panic(err)
			}
		}
	}
	if err := cv.SetDefault("CSR-Vec"); err != nil {
		panic(err)
	}
	names := sparse.FeatureNames()
	for i := range names {
		i := i
		cv.AddInputFeature(nitro.Feature[*sparse.Problem]{
			Name: names[i],
			Eval: func(p *sparse.Problem) float64 { return p.Features().Vector()[i] },
		})
	}
	return &mySparse{cx: cx, cv: cv, dev: dev}
}

// SparseMatVec is the end-user entry point: y = A*x with Nitro picking the
// format variant. It reports which variant ran and the simulated time.
func (lib *mySparse) SparseMatVec(m *sparse.CSR, x []float64) (string, float64) {
	p, err := sparse.NewProblem(m, x)
	if err != nil {
		panic(err)
	}
	secs, chosen, err := lib.cv.Call(p)
	if err != nil {
		panic(err)
	}
	return chosen, secs
}

func trainingMatrices(rng *rand.Rand) []*sparse.Problem {
	var out []*sparse.Problem
	add := func(m *sparse.CSR) {
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		p, err := sparse.NewProblem(m, x)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	for i := 0; i < 6; i++ {
		add(sparse.Stencil2D(40+10*i, 40+10*i))
		add(sparse.Banded(2000+500*i, []int{-1 - i, 0, 1 + i}, rng.Int63()))
		add(sparse.RegularRandom(20000+5000*i, 6+4*i, rng.Int63()))
		add(sparse.PowerLaw(2500+400*i, 6+2*float64(i), 1.4+0.1*float64(i), rng.Int63()))
		add(sparse.BlockClustered(5000+1000*i, 24+4*i, 160, rng.Int63()))
	}
	return out
}

func main() {
	dev := gpusim.Fermi()
	lib := newMySparse(dev)
	rng := rand.New(rand.NewSource(7))

	tuner := nitro.NewAutotuner(lib.cv, nitro.TrainOptions{GridSearch: true})
	rep, err := tuner.Tune(trainingMatrices(rng))
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained SpMV model: labels %v, accuracy %.0f%%\n", rep.LabelCounts, 100*rep.TrainAccuracy)

	// Persist and reload the model — the deployment artifact.
	path := filepath.Join(os.TempDir(), "spmv.model.json")
	if err := lib.cx.SaveModel("spmv", path); err != nil {
		panic(err)
	}
	fmt.Printf("model saved to %s\n", path)

	// End-user calls on unseen matrices.
	cases := []struct {
		name string
		m    *sparse.CSR
	}{
		{"poisson 2D stencil", sparse.Stencil2D(96, 96)},
		{"pentadiagonal band", sparse.Banded(8000, []int{-2, -1, 0, 1, 2}, 99)},
		{"regular random (ELL-friendly)", sparse.RegularRandom(30000, 14, 100)},
		{"power-law rows (CSR-only)", sparse.PowerLaw(6000, 10, 1.4, 101)},
		{"clustered columns (texture-friendly)", sparse.BlockClustered(20000, 32, 200, 102)},
	}
	for _, tc := range cases {
		x := make([]float64, tc.m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		chosen, secs := lib.SparseMatVec(tc.m, x)
		f := sparse.ComputeFeatures(tc.m)
		fmt.Printf("%-38s -> %-8s (%.3f ms; DIA fill %.1f, ELL fill %.1f)\n",
			tc.name, chosen, secs*1e3, f.DIAFill, f.ELLFill)
	}
	// Concurrent serving: the tuned library handles simultaneous callers —
	// one CodeVariant shared by a batch fanned over all cores.
	var probs []*sparse.Problem
	for i := 0; i < 12; i++ {
		m := sparse.Stencil2D(48+8*i, 48+8*i)
		if i%3 == 2 {
			m = sparse.PowerLaw(3000+500*i, 8, 1.4, int64(300+i))
		}
		x := make([]float64, m.Cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		p, err := sparse.NewProblem(m, x)
		if err != nil {
			panic(err)
		}
		probs = append(probs, p)
	}
	served := map[string]int{}
	for i, r := range lib.cv.CallConcurrent(probs, 0) {
		if r.Err != nil {
			panic(fmt.Sprintf("concurrent call %d: %v", i, r.Err))
		}
		served[r.Variant]++
	}
	fmt.Printf("served %d concurrent SpMV calls: %v\n", len(probs), served)

	stats := lib.cx.Stats("spmv")
	fmt.Printf("calls: %d, fallbacks to default: %d, per-variant: %v\n",
		stats.Calls, stats.DefaultFallbacks, stats.PerVariant)
}
