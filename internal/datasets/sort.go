package datasets

import (
	"fmt"
	"math/rand"

	"nitro/internal/autotuner"
	"nitro/internal/gpusim"
	"nitro/internal/par"
	"nitro/internal/sortbench"
)

// sortCategories are the paper's three test categories; the training set
// additionally mixes in normal/exponential keys (which the paper found
// indistinguishable from uniform).
var sortCategories = []string{"uniform", "reverse", "almost"}

func sortKeys(category string, i, n int, rng *rand.Rand) []float64 {
	seed := rng.Int63()
	switch category {
	case "uniform":
		switch i % 3 {
		case 1:
			return sortbench.NormalKeys(n, seed)
		case 2:
			return sortbench.ExponentialKeys(n, seed)
		default:
			return sortbench.UniformKeys(n, seed)
		}
	case "reverse":
		return sortbench.ReverseSortedKeys(n, seed)
	default: // almost sorted: 20-25% of keys swapped locally
		frac := 0.20 + 0.0125*float64(i%5)
		window := 32 << (i % 3)
		return sortbench.AlmostSortedKeys(n, frac, window, seed)
	}
}

// Sort builds the sorting suite (paper: 120 training / 600 test sequences —
// half 32-bit, half 64-bit keys — over Merge, Locality and Radix sorts; key
// lengths 100K-20M in the paper, scaled down here).
func Sort(cfg Config, dev *gpusim.Device) (*autotuner.Suite, error) {
	cfg = cfg.Norm()
	nTrain, nTest := cfg.counts(120, 600)
	s := &autotuner.Suite{
		Name:           "Sort",
		VariantNames:   sortbench.VariantNames(),
		FeatureNames:   sortbench.FeatureNames(),
		DefaultVariant: 0, // Merge: competitive on both key widths
	}
	build := func(n int, seedOff int64) []autotuner.Instance {
		// Phase 1 (serial): generate key sequences and features in instance
		// order so the RNG stream is consumed deterministically.
		stopGen := cfg.Phases.Start("generate")
		rng := rand.New(rand.NewSource(cfg.Seed + seedOff))
		out := make([]autotuner.Instance, n)
		probs := make([]*sortbench.Problem, n)
		for i := 0; i < n; i++ {
			bits := 32
			if i%2 == 1 {
				bits = 64
			}
			category := sortCategories[(i/2)%len(sortCategories)]
			// The paper sorts 100K-20M keys; at tiny sizes kernel-launch
			// overhead would mask the pass-count crossovers, so keep keys
			// large enough for traffic to dominate.
			size := cfg.scaled(32768*(1+i%8), 2048)
			keys := sortKeys(category, i/2/len(sortCategories), size, rng)
			p, err := sortbench.NewProblem(keys, bits)
			if err != nil {
				panic(err) // generator bug: sizes/widths always valid
			}
			f := sortbench.ComputeFeatures(p)
			probs[i] = p
			out[i] = autotuner.Instance{
				ID:       fmt.Sprintf("%s-%dbit-%d", category, bits, i),
				Features: f.Vector(),
				FeatureCosts: []float64{
					host.Constant(), // N
					host.Constant(), // Nbits
					host.Scan(float64(size*bits/8), 1, bits/8), // NAscSeq
				},
			}
		}
		stopGen()
		// Phase 2 (parallel): label each sequence by exhaustive search. A
		// sort's simulated time depends only on the key count, width and
		// displacement, never on the sorted keys, so each variant is priced
		// with its cost model instead of sorting; the times are bit-identical
		// to the ones Run reports.
		defer cfg.Phases.Start("label")()
		variants := sortbench.Variants()
		par.For(n, cfg.workers(), func(i int) {
			times := make([]float64, len(variants))
			for j, v := range variants {
				times[j] = v.Cost(probs[i], dev)
			}
			out[i].Times = times
		})
		return out
	}
	s.Train = build(nTrain, 41)
	s.Test = build(nTest, 42)
	return s, nil
}
