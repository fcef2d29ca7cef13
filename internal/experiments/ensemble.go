package experiments

// Ensemble study: quantify what the agreement-weighted committee buys (and
// costs) over the single tuned SVM. The JSON form (WriteEnsembleJSON) is the
// machine-readable BENCH_ensemble.json artifact `make bench-ensemble` emits;
// EXPERIMENTS.md records a reference run.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/ml"
)

// EnsembleRow compares the single-SVM and four-member-ensemble selectors on
// one benchmark: selection quality, training cost and per-prediction
// overhead (the price of polling four models instead of one).
type EnsembleRow struct {
	Benchmark string `json:"benchmark"`
	// Selection quality: fraction of exhaustive-search performance and
	// exact-pick rate on the held-out test corpus.
	SVMPerf       float64 `json:"svm_mean_perf"`
	SVMExact      float64 `json:"svm_exact_rate"`
	EnsemblePerf  float64 `json:"ensemble_mean_perf"`
	EnsembleExact float64 `json:"ensemble_exact_rate"`
	// Training wall time in milliseconds (the ensemble pays a k-fold
	// out-of-fold pass on top of fitting four members).
	SVMTrainMs      float64 `json:"svm_train_ms"`
	EnsembleTrainMs float64 `json:"ensemble_train_ms"`
	// Per-prediction cost in ns/op over the test corpus (0 when timing was
	// skipped).
	SVMPredictNs      float64 `json:"svm_predict_ns_op"`
	EnsemblePredictNs float64 `json:"ensemble_predict_ns_op"`
	// MeanConfidence is the ensemble's mean calibrated confidence over the
	// test corpus.
	MeanConfidence float64 `json:"ensemble_mean_confidence"`
}

// EnsembleReport is the on-disk shape of BENCH_ensemble.json.
type EnsembleReport struct {
	// PredictCalls is the per-model prediction-timing iteration count (0 =
	// timing skipped).
	PredictCalls int           `json:"predict_calls"`
	Rows         []EnsembleRow `json:"rows"`
}

// EnsembleStudy runs the comparison over every suite. predictCalls is the
// prediction-timing iteration count; 0 skips the wall-clock timings (the
// fast mode tests use) while still reporting quality and confidence.
func EnsembleStudy(suites []*autotuner.Suite, opts Options, predictCalls int) (EnsembleReport, error) {
	opts = opts.Norm()
	rep := EnsembleReport{PredictCalls: predictCalls}
	for _, s := range suites {
		row := EnsembleRow{Benchmark: s.Name}
		for _, kind := range []string{"svm", "ensemble"} {
			tr := opts.Train
			tr.Classifier = kind
			tr.GridSearch = kind == "svm" && opts.Train.GridSearch
			start := time.Now()
			model, _, err := autotuner.Train(s.Train, tr)
			if err != nil {
				return rep, fmt.Errorf("%s/%s: %w", s.Name, kind, err)
			}
			trainMs := float64(time.Since(start).Microseconds()) / 1000
			eval := autotuner.Evaluate(model, s, s.Test)
			exact := 0.0
			if eval.Evaluated > 0 {
				exact = float64(eval.ExactMatches) / float64(eval.Evaluated)
			}
			predictNs := 0.0
			if predictCalls > 0 {
				predictNs = timePredict(model, s, predictCalls)
			}
			if kind == "svm" {
				row.SVMPerf, row.SVMExact = eval.MeanPerf, exact
				row.SVMTrainMs, row.SVMPredictNs = trainMs, predictNs
			} else {
				row.EnsemblePerf, row.EnsembleExact = eval.MeanPerf, exact
				row.EnsembleTrainMs, row.EnsemblePredictNs = trainMs, predictNs
				row.MeanConfidence = meanConfidence(model, s)
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// timePredict measures the steady-state Model.Predict cost over the suite's
// test features.
func timePredict(model *ml.Model, s *autotuner.Suite, calls int) float64 {
	feats := make([][]float64, 0, len(s.Test))
	for _, in := range s.Test {
		feats = append(feats, in.Features)
	}
	if len(feats) == 0 {
		return 0
	}
	for i := 0; i < len(feats); i++ { // warm
		model.Predict(feats[i])
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		model.Predict(feats[i%len(feats)])
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// meanConfidence averages the model's calibrated confidence over the test
// corpus.
func meanConfidence(model *ml.Model, s *autotuner.Suite) float64 {
	if len(s.Test) == 0 {
		return 0
	}
	sum := 0.0
	for _, in := range s.Test {
		sum += model.Confidence(in.Features)
	}
	return sum / float64(len(s.Test))
}

// FormatEnsemble renders the study as aligned text tables.
func FormatEnsemble(rep EnsembleReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ensemble committee vs single SVM — selection quality and overhead\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %10s %10s %10s %10s %11s\n",
		"benchmark", "svm perf", "ens perf", "svm exact", "ens exact", "svm ns", "ens ns", "ens conf")
	ns := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f ns", v)
	}
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-10s %8.2f%% %8.2f%% %9.1f%% %9.1f%% %10s %10s %10.3f\n",
			r.Benchmark, 100*r.SVMPerf, 100*r.EnsemblePerf, 100*r.SVMExact, 100*r.EnsembleExact,
			ns(r.SVMPredictNs), ns(r.EnsemblePredictNs), r.MeanConfidence)
	}
	return b.String()
}

// WriteEnsembleJSON emits the machine-readable benchmark artifact.
func WriteEnsembleJSON(w io.Writer, rep EnsembleReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
