package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"nitro/internal/autotuner"
	"nitro/internal/ml"
)

// Fig7Curve is one benchmark's incremental-tuning trajectory: test-set
// performance (fraction of exhaustive search) after the seed model and after
// each active-learning iteration, against the full-training reference.
type Fig7Curve struct {
	Benchmark string
	FullPerf  float64
	SeedSize  int
	// Curve[k] is the performance after k queries (Curve[0] = seed model).
	Curve []float64
	// RandomCurve is the random-sampling ablation trajectory (same budget).
	RandomCurve []float64
}

// IterationsToReach returns the smallest query count whose performance is at
// least frac*FullPerf, or -1 if never reached.
func (c Fig7Curve) IterationsToReach(frac float64) int {
	target := frac * c.FullPerf
	for k, p := range c.Curve {
		if p >= target {
			return k
		}
	}
	return -1
}

// Fig7 runs incremental tuning (BvSB) plus the random-sampling ablation on
// every suite.
func Fig7(suites []*autotuner.Suite, opts Options, maxIters int) ([]Fig7Curve, error) {
	opts = opts.Norm()
	out := make([]Fig7Curve, 0, len(suites))
	for _, s := range suites {
		full, _, err := autotuner.FullTrainPerf(s, opts.Train)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		res, err := autotuner.IncrementalTune(s, autotuner.IncrementalOptions{MaxIterations: maxIters}, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rnd, err := autotuner.IncrementalTune(s, autotuner.IncrementalOptions{
			MaxIterations: maxIters,
			Strategy:      ml.RandomStrategy{Rng: rand.New(rand.NewSource(opts.Cfg.Seed + 99))},
		}, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		out = append(out, Fig7Curve{
			Benchmark:   s.Name,
			FullPerf:    full,
			SeedSize:    res.SeedSize,
			Curve:       res.PerfCurve,
			RandomCurve: rnd.PerfCurve,
		})
	}
	return out, nil
}

// FormatFig7 renders the incremental-tuning trajectories.
func FormatFig7(curves []Fig7Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — incremental tuning: %% of full-training performance vs BvSB iterations\n")
	for _, c := range curves {
		fmt.Fprintf(&b, "%s (full-training perf %.2f%%, seed %d):\n", c.Benchmark, 100*c.FullPerf, c.SeedSize)
		marks := []int{0, 5, 10, 15, 20, 25, 30, 40, 50}
		for _, k := range marks {
			if k >= len(c.Curve) {
				break
			}
			rnd := ""
			if k < len(c.RandomCurve) && c.FullPerf > 0 {
				rnd = fmt.Sprintf("  (random: %5.1f%%)", 100*c.RandomCurve[k]/c.FullPerf)
			}
			if c.FullPerf > 0 {
				fmt.Fprintf(&b, "  iter %-3d %5.1f%% of full%s\n", k, 100*c.Curve[k]/c.FullPerf, rnd)
			}
		}
		if k := c.IterationsToReach(0.90); k >= 0 {
			fmt.Fprintf(&b, "  reaches 90%% of full-training performance after %d iterations (paper: ~25)\n", k)
		} else {
			fmt.Fprintf(&b, "  did not reach 90%% of full-training performance within the budget\n")
		}
	}
	return b.String()
}

// Fig8Row is one benchmark's feature-overhead study: features are added in
// increasing evaluation-cost order and the model retrained on each prefix.
type Fig8Row struct {
	Benchmark string
	// FeatureOrder names the features in the cost order used.
	FeatureOrder []string
	// PrefixPerf[k] is the test performance using the k+1 cheapest features.
	PrefixPerf []float64
	// PrefixCostFrac[k] is the cumulative feature-evaluation cost of that
	// prefix as a fraction of the mean oracle variant time.
	PrefixCostFrac []float64
}

// MinimalFeatures returns the smallest prefix size achieving at least frac of
// the all-features performance.
func (r Fig8Row) MinimalFeatures(frac float64) int {
	full := r.PrefixPerf[len(r.PrefixPerf)-1]
	for k, p := range r.PrefixPerf {
		if p >= frac*full {
			return k + 1
		}
	}
	return len(r.PrefixPerf)
}

// Fig8 runs the feature-evaluation overhead study on every suite.
func Fig8(suites []*autotuner.Suite, opts Options) ([]Fig8Row, error) {
	opts = opts.Norm()
	out := make([]Fig8Row, 0, len(suites))
	for _, s := range suites {
		nFeat := len(s.FeatureNames)
		order := featureOrderByCost(s.Train, nFeat)
		row := Fig8Row{Benchmark: s.Name}
		oracle := autotuner.OracleMeanTime(s.Test)
		var cumCost float64
		costSums := make([]float64, nFeat)
		for _, in := range s.Test {
			for j, c := range in.FeatureCosts {
				costSums[j] += c
			}
		}
		for k := 1; k <= nFeat; k++ {
			keep := order[:k]
			trainP := projectInstances(s.Train, keep)
			testP := projectInstances(s.Test, keep)
			model, _, err := autotuner.Train(trainP, opts.Train)
			if err != nil {
				return nil, fmt.Errorf("%s/%d features: %w", s.Name, k, err)
			}
			eval := autotuner.Evaluate(model, s, testP)
			row.PrefixPerf = append(row.PrefixPerf, eval.MeanPerf)
			cumCost += costSums[order[k-1]] / float64(max(len(s.Test), 1))
			frac := 0.0
			if oracle > 0 {
				frac = cumCost / oracle
			}
			row.PrefixCostFrac = append(row.PrefixCostFrac, frac)
		}
		for _, j := range order {
			row.FeatureOrder = append(row.FeatureOrder, s.FeatureNames[j])
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatFig8 renders the overhead study.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — performance as features are added in increasing evaluation-cost order\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s:\n", r.Benchmark)
		for k := range r.PrefixPerf {
			fmt.Fprintf(&b, "  +%-16s perf %6.2f%%  cum. feature cost %8.4f%% of variant time\n",
				r.FeatureOrder[k], 100*r.PrefixPerf[k], 100*r.PrefixCostFrac[k])
		}
		fmt.Fprintf(&b, "  minimal feature set for 95%% of full performance: %d of %d\n",
			r.MinimalFeatures(0.95), len(r.FeatureOrder))
	}
	return b.String()
}
