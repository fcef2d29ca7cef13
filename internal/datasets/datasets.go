// Package datasets builds the training and test corpora for the five
// benchmarks of the Nitro reproduction. Seeded synthetic generators stand in
// for the paper's external collections (UFL Sparse Matrix collection,
// DIMACS10 graphs, generated key/sample sequences); corpus sizes default to
// the paper's Fig. 4 (SpMV 54/100, Solver 26/100, BFS 20/148, Histogram
// 200/1291, Sort 120/600). Each builder labels every input by pricing every
// code variant on it once (constraint-vetoed or failing variants score +Inf)
// and packages the results as autotuner.Suite instances, including
// per-feature evaluation-cost estimates for the Fig. 8 overhead analysis.
// Solvers and Histogram run each variant; BFS prices every variant from one
// cached traversal per source; SpMV and Sort price each variant with its
// cost model alone, because the simulated time depends only on the matrix
// structure or on the key count, width and displacement, never on the
// product or the sorted keys.
package datasets

import (
	"math"
	"sync"

	"nitro/internal/autotuner"
	"nitro/internal/gpusim"
	"nitro/internal/obs"
	"nitro/internal/par"
)

// Config controls corpus construction.
type Config struct {
	// Seed drives every generator; corpora are fully deterministic in it.
	Seed int64
	// Scale in (0, 1] shrinks instance sizes (not corpus counts) for fast
	// tests and benchmarks; 1 reproduces the evaluation scale.
	Scale float64
	// TrainCount / TestCount override the paper's corpus sizes when > 0.
	TrainCount int
	TestCount  int
	// Parallelism caps the worker count of each builder's labelling stage
	// (running every variant on every input): 0 uses all cores, 1 runs
	// serially. Input generation stays serial either way — the seeded RNG
	// stream is consumed in instance order — so corpora are bit-identical
	// at every setting.
	Parallelism int
	// Phases, when non-nil, accumulates per-phase wall time for corpus
	// construction ("generate" for the serial seeded generation, "label" for
	// the parallel exhaustive-search labelling); the nil tracker is a valid
	// no-op.
	Phases *obs.PhaseTracker
}

// workers resolves the Parallelism knob for the labelling stage.
func (c Config) workers() int { return par.Workers(c.Parallelism) }

// Norm fills defaults: seed 42, scale 1.
func (c Config) Norm() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	return c
}

func (c Config) counts(paperTrain, paperTest int) (int, int) {
	tr, te := paperTrain, paperTest
	if c.TrainCount > 0 {
		tr = c.TrainCount
	}
	if c.TestCount > 0 {
		te = c.TestCount
	}
	return tr, te
}

// scaled shrinks a size linearly with Scale, with a floor.
func (c Config) scaled(base, min int) int {
	v := int(float64(base) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// scaledSide shrinks a 2-D side length with sqrt(Scale), with a floor.
func (c Config) scaledSide(base, min int) int {
	v := int(float64(base) * math.Sqrt(c.Scale))
	if v < min {
		v = min
	}
	return v
}

// host is the feature-evaluation cost model (the features run on the CPU).
var host = gpusim.DefaultHost()

// SuiteBuilder names one benchmark corpus builder.
type SuiteBuilder struct {
	Name  string
	Build func(cfg Config, dev *gpusim.Device) (*autotuner.Suite, error)
}

// Builders returns the five benchmark corpus builders in the paper's order.
func Builders() []SuiteBuilder {
	return []SuiteBuilder{
		{Name: "SpMV", Build: SpMV},
		{Name: "Solvers", Build: Solver},
		{Name: "BFS", Build: BFS},
		{Name: "Histogram", Build: Histogram},
		{Name: "Sort", Build: Sort},
	}
}

// All builds every benchmark suite. Builders are independent and seeded per
// suite, so they run concurrently without affecting determinism.
func All(cfg Config, dev *gpusim.Device) ([]*autotuner.Suite, error) {
	builders := Builders()
	out := make([]*autotuner.Suite, len(builders))
	errs := make([]error, len(builders))
	var wg sync.WaitGroup
	for i, b := range builders {
		wg.Add(1)
		go func(i int, b SuiteBuilder) {
			defer wg.Done()
			out[i], errs[i] = b.Build(cfg, dev)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
