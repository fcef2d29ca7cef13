package nitro_test

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// experiment index), plus ablation benches for the design choices DESIGN.md
// flags (classifier kind, grid search, active-learning strategy, constraint
// checking, feature-evaluation mode). Benches run on reduced-scale corpora
// so `go test -bench=.` stays tractable; cmd/nitro-experiments regenerates
// the full-scale numbers. Quality metrics (mean % of exhaustive-search
// performance) are attached to the benchmark output via ReportMetric.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/experiments"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
)

// benchCfg is the reduced corpus configuration shared by every bench.
func benchCfg() datasets.Config {
	return datasets.Config{Seed: 42, Scale: 0.2, TrainCount: 24, TestCount: 36}
}

func benchOpts() experiments.Options {
	return experiments.Options{Cfg: benchCfg()}
}

var (
	suiteOnce   sync.Once
	benchSuites []*autotuner.Suite
	suiteErr    error
)

func suites(b *testing.B) []*autotuner.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		benchSuites, suiteErr = experiments.BuildSuites(benchOpts(), gpusim.Fermi())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return benchSuites
}

// BenchmarkFig4Setup measures corpus construction: generating every input
// and labelling it by exhaustive search over every code variant (the paper's
// training data collection cost; SpMV and Sort price their variants from
// their cost models). Variant labelling fans out over all cores; the
// reported "speedup" metric compares against a serial (Parallelism=1) run in
// the same process. Corpora are bit-identical at every worker count.
func BenchmarkFig4Setup(b *testing.B) {
	dev := gpusim.Fermi()
	serialCfg := benchCfg()
	serialCfg.Parallelism = 1
	start := time.Now()
	if _, err := datasets.All(serialCfg, dev); err != nil {
		b.Fatal(err)
	}
	serialDur := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datasets.All(benchCfg(), dev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(serialDur)/(float64(b.Elapsed())/float64(b.N)), "speedup")
}

// BenchmarkFig4SetupSerial is the one-worker baseline of BenchmarkFig4Setup.
func BenchmarkFig4SetupSerial(b *testing.B) {
	dev := gpusim.Fermi()
	cfg := benchCfg()
	cfg.Parallelism = 1
	for i := 0; i < b.N; i++ {
		if _, err := datasets.All(cfg, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5VariantVsBest measures the per-variant performance analysis.
func BenchmarkFig5VariantVsBest(b *testing.B) {
	ss := suites(b)
	b.ResetTimer()
	var nitro float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(ss, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		nitro = 0
		for _, r := range rows {
			nitro += r.NitroPerf
		}
		nitro /= float64(len(rows))
	}
	b.ReportMetric(100*nitro, "%ofBest")
}

// BenchmarkFig6NitroVsExhaustive measures the headline train+evaluate
// pipeline over all five benchmarks.
func BenchmarkFig6NitroVsExhaustive(b *testing.B) {
	ss := suites(b)
	dev := gpusim.Fermi()
	b.ResetTimer()
	var avg, min float64
	for i := 0; i < b.N; i++ {
		h, err := experiments.Headline(ss, benchOpts(), dev)
		if err != nil {
			b.Fatal(err)
		}
		avg, min = h.AvgPerf, h.MinPerf
	}
	b.ReportMetric(100*avg, "%ofBest")
	b.ReportMetric(100*min, "min%ofBest")
}

// BenchmarkFig7IncrementalTuning measures the Best-vs-Second-Best
// active-learning loop (15 iterations over every suite).
func BenchmarkFig7IncrementalTuning(b *testing.B) {
	ss := suites(b)
	b.ResetTimer()
	var final float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig7(ss, benchOpts(), 15)
		if err != nil {
			b.Fatal(err)
		}
		final = 0
		for _, c := range curves {
			if c.FullPerf > 0 {
				final += c.Curve[len(c.Curve)-1] / c.FullPerf
			}
		}
		final /= float64(len(curves))
	}
	b.ReportMetric(100*final, "%ofFullTrain")
}

// BenchmarkFig8FeatureOverhead measures the feature-prefix retraining study.
func BenchmarkFig8FeatureOverhead(b *testing.B) {
	ss := suites(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(ss, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainEval trains with the given options on every suite and reports
// the mean test performance.
func benchTrainEval(b *testing.B, opts autotuner.TrainOptions) {
	b.Helper()
	ss := suites(b)
	b.ResetTimer()
	var perf float64
	for i := 0; i < b.N; i++ {
		perf = 0
		for _, s := range ss {
			model, _, err := autotuner.Train(s.Train, opts)
			if err != nil {
				b.Fatal(err)
			}
			perf += autotuner.Evaluate(model, s, s.Test).MeanPerf
		}
		perf /= float64(len(ss))
	}
	b.ReportMetric(100*perf, "%ofBest")
}

// Ablation: cross-validated grid search vs libSVM-style defaults.
func BenchmarkAblationGridSearchOn(b *testing.B) {
	benchTrainEval(b, autotuner.TrainOptions{
		GridSearch: true,
		Grid:       ml.GridConfig{CValues: []float64{1, 32}, GammaValues: []float64{0.1, 1}, Folds: 3},
	})
}

func BenchmarkAblationGridSearchOff(b *testing.B) {
	benchTrainEval(b, autotuner.TrainOptions{})
}

// benchIncremental runs incremental tuning with the given strategy on every
// suite and reports the mean final performance.
func benchIncremental(b *testing.B, strat ml.QueryStrategy) {
	b.Helper()
	ss := suites(b)
	b.ResetTimer()
	var perf float64
	for i := 0; i < b.N; i++ {
		perf = 0
		for _, s := range ss {
			res, err := autotuner.IncrementalTune(s, autotuner.IncrementalOptions{
				MaxIterations: 10,
				Strategy:      strat,
			}, s)
			if err != nil {
				b.Fatal(err)
			}
			perf += res.PerfCurve[len(res.PerfCurve)-1]
		}
		perf /= float64(len(ss))
	}
	b.ReportMetric(100*perf, "%ofBest")
}

// Ablation: BvSB active learning vs random sampling.
func BenchmarkAblationActiveLearningBvSB(b *testing.B) {
	benchIncremental(b, ml.BvSBStrategy{})
}

func BenchmarkAblationActiveLearningRandom(b *testing.B) {
	benchIncremental(b, ml.RandomStrategy{Rng: rand.New(rand.NewSource(1))})
}

// Ablation: constraint checking on vs off for SpMV. With constraints off,
// a DIA/ELL pick on an incompatible matrix is scored as a failed execution
// (performance 0), quantifying the paper's misprediction penalty.
func benchConstraints(b *testing.B, enabled bool) {
	b.Helper()
	cfg := benchCfg()
	dev := gpusim.Fermi()
	s, err := datasets.SpMV(cfg, dev)
	if err != nil {
		b.Fatal(err)
	}
	if !enabled {
		// Disabling deployment-time constraints means no fallback: emulate
		// by making the default variant infeasible so mispredictions onto
		// vetoed variants score zero.
		s = &autotuner.Suite{
			Name:         s.Name,
			VariantNames: s.VariantNames,
			FeatureNames: s.FeatureNames,
			// An out-of-range default disables the fallback path.
			DefaultVariant: -1,
			Train:          s.Train,
			Test:           s.Test,
		}
	}
	// A degenerate model that always predicts DIA exercises the mechanism
	// directly: every DIA-infeasible matrix is a misprediction that only the
	// constraint fallback can save. The gap between the two benches is the
	// paper's misprediction penalty. An SVM fitted on one class always
	// predicts it.
	ds := &ml.Dataset{}
	ds.Append(s.Train[0].Features, 1) // label 1 = DIA
	alwaysDIA := ml.DefaultSVM()
	if err := alwaysDIA.Fit(ds); err != nil {
		b.Fatal(err)
	}
	model := &ml.Model{Classifier: alwaysDIA}
	b.ResetTimer()
	var perf float64
	for i := 0; i < b.N; i++ {
		perf = autotuner.Evaluate(model, s, s.Test).MeanPerf
	}
	b.ReportMetric(100*perf, "%ofBest")
}

func BenchmarkAblationConstraintsOn(b *testing.B)  { benchConstraints(b, true) }
func BenchmarkAblationConstraintsOff(b *testing.B) { benchConstraints(b, false) }
