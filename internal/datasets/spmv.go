package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"nitro/internal/autotuner"
	"nitro/internal/gpusim"
	"nitro/internal/par"
	"nitro/internal/sparse"
)

// spmvGroups mirrors the UFL-group structure of the paper's SpMV corpus:
// each group produces matrices in one structural regime.
var spmvGroups = []string{"stencil2d", "stencil3d", "banded", "regular", "powerlaw", "clustered", "uniform"}

// spmvMatrix generates the i-th matrix of a group.
func spmvMatrix(group string, i int, cfg Config, rng *rand.Rand) *sparse.CSR {
	seed := rng.Int63()
	switch group {
	case "stencil2d":
		side := cfg.scaledSide(48+12*(i%6), 10)
		return sparse.Stencil2D(side, side+i%3)
	case "stencil3d":
		side := cfg.scaledSide(14+2*(i%4), 4)
		return sparse.Stencil3D(side, side, side+i%2)
	case "banded":
		n := cfg.scaled(3000+900*(i%5), 200)
		offsets := []int{0}
		for d := 1; d <= 2+i%4; d++ {
			offsets = append(offsets, d*(1+i%3), -d*(1+i%3))
		}
		return sparse.Banded(n, offsets, seed)
	case "regular":
		n := cfg.scaled(4000+1500*(i%5), 300)
		return sparse.RegularRandom(n, 6+4*(i%6), seed)
	case "powerlaw":
		n := cfg.scaled(3000+1200*(i%5), 300)
		return sparse.PowerLaw(n, 6+2*float64(i%4), 1.3+0.15*float64(i%4), seed)
	case "clustered":
		n := cfg.scaled(6000+2000*(i%4), 400)
		rowLen := 20 + 8*(i%4)
		return sparse.BlockClustered(n, rowLen, rowLen*6, seed)
	default: // uniform
		n := cfg.scaled(2500+800*(i%4), 250)
		return sparse.RandomUniform(n, n*(5+i%6), seed)
	}
}

// spmvProblem builds the problem and the instance skeleton (features and
// feature costs, but no Times) for one matrix. It consumes rng and therefore
// must run serially in instance order.
func spmvProblem(id string, m *sparse.CSR, rng *rand.Rand) (*sparse.Problem, autotuner.Instance) {
	x := make([]float64, m.Cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	p, err := sparse.NewProblem(m, x)
	if err != nil {
		panic(err) // generator bug: dimensions always match
	}
	f := p.Features()
	return p, autotuner.Instance{
		ID:       id,
		Features: f.Vector(),
		FeatureCosts: []float64{
			host.Scan(float64(4*m.Rows), 1, 4),  // AvgNZPerRow: row-pointer pass
			host.Scan(float64(4*m.Rows), 2, 4),  // RL-SD
			host.Scan(float64(4*m.Rows), 1, 4),  // MaxDeviation
			host.Scan(float64(4*m.NNZ()), 3, 4), // DIA-Fill: column-index pass
			host.Scan(float64(4*m.Rows), 1, 4),  // ELL-Fill
		},
	}
}

// spmvTimes exhaustively prices the given variants on one problem (the
// labelling stage). Each variant's cost model makes the charges its Run
// makes from the matrix structure alone, so no padded format is built and
// no product computed; the times are bit-identical to Run's. It is pure in
// p and dev, so instances label in parallel.
func spmvTimes(p *sparse.Problem, dev *gpusim.Device, variants []sparse.Variant) []float64 {
	times := make([]float64, 0, len(variants))
	for _, v := range variants {
		if v.Constraint != nil && !v.Constraint(p) {
			times = append(times, math.Inf(1))
			continue
		}
		secs, err := v.Cost(p, dev)
		if err != nil {
			times = append(times, math.Inf(1))
			continue
		}
		times = append(times, secs)
	}
	return times
}

// SpMV builds the sparse matrix-vector multiply suite (paper: 54 training /
// 100 test matrices over six CUSP variants).
func SpMV(cfg Config, dev *gpusim.Device) (*autotuner.Suite, error) {
	return spmvSuite(cfg, dev, "SpMV", sparse.Variants(), sparse.VariantNames())
}

// SpMVExtended builds the same corpus over the eight-variant extension set
// (the paper's six plus COO and HYB), for the richer-variant-space
// experiment.
func SpMVExtended(cfg Config, dev *gpusim.Device) (*autotuner.Suite, error) {
	return spmvSuite(cfg, dev, "SpMV+ext", sparse.ExtendedVariants(), sparse.ExtendedVariantNames())
}

func spmvSuite(cfg Config, dev *gpusim.Device, name string, variants []sparse.Variant, names []string) (*autotuner.Suite, error) {
	cfg = cfg.Norm()
	nTrain, nTest := cfg.counts(54, 100)
	s := &autotuner.Suite{
		Name:           name,
		VariantNames:   names,
		FeatureNames:   sparse.FeatureNames(),
		DefaultVariant: 0, // CSR-Vec handles every matrix
	}
	build := func(n int, seedOff int64) []autotuner.Instance {
		// Phase 1 (serial): generate matrices and feature vectors in
		// instance order — the RNG stream must be consumed deterministically.
		stopGen := cfg.Phases.Start("generate")
		rng := rand.New(rand.NewSource(cfg.Seed + seedOff))
		out := make([]autotuner.Instance, n)
		probs := make([]*sparse.Problem, n)
		for i := 0; i < n; i++ {
			group := spmvGroups[i%len(spmvGroups)]
			m := spmvMatrix(group, i/len(spmvGroups), cfg, rng)
			probs[i], out[i] = spmvProblem(fmt.Sprintf("%s-%d", group, i), m, rng)
		}
		stopGen()
		// Phase 2 (parallel): exhaustive-search labelling, independent per
		// instance; results land in index order.
		defer cfg.Phases.Start("label")()
		par.For(n, cfg.workers(), func(i int) {
			out[i].Times = spmvTimes(probs[i], dev, variants)
		})
		return out
	}
	s.Train = build(nTrain, 1)
	s.Test = build(nTest, 2)
	return s, nil
}
