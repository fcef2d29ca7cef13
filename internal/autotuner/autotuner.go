// Package autotuner implements the offline half of Nitro (the paper's
// Python-side Nitro Autotuner): exhaustive-search labelling of training
// inputs, feature scaling, classifier construction with cross-validated grid
// search, incremental tuning via Best-vs-Second-Best active learning, model
// persistence, and the evaluation machinery the paper's experiments report
// (performance of tuned selection relative to exhaustive search).
//
// Two layers are provided. The Suite layer works on precomputed
// (feature-vector, per-variant cost) instances and powers the experiment
// harnesses; the Tuner layer drives a live core.CodeVariant end to end.
package autotuner

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/par"
)

// Instance is one tuning input reduced to what the autotuner needs: its
// feature vector and the cost of every variant on it (+Inf marks a variant
// that is vetoed by a constraint or failed, per the paper's convention).
type Instance struct {
	ID       string
	Features []float64
	Times    []float64
	// FeatureCosts optionally holds the modelled evaluation cost (seconds)
	// of each feature on this input, aligned with Features; the Fig. 8
	// overhead analysis consumes it.
	FeatureCosts []float64
}

// Best returns the argmin variant and its cost; (-1, +Inf) when every
// variant is infeasible.
func (in Instance) Best() (int, float64) {
	best, bestV := -1, math.Inf(1)
	for i, t := range in.Times {
		if t < bestV {
			best, bestV = i, t
		}
	}
	return best, bestV
}

// Suite is a complete benchmark corpus: named variants and features plus
// train and test instance sets, with the default variant used for
// constraint fallback at deployment time.
type Suite struct {
	Name           string
	VariantNames   []string
	FeatureNames   []string
	DefaultVariant int
	Train          []Instance
	Test           []Instance
}

// TrainOptions configures the paper's classifier, an RBF C-SVC, and how it
// is fitted.
type TrainOptions struct {
	// GridSearch enables the paper's cross-validated (C, gamma) search for
	// the SVM; otherwise libSVM-style defaults are used (ml.DefaultSVM).
	GridSearch bool
	// Grid overrides the default search grid.
	Grid ml.GridConfig
	// Seed drives fold assignment.
	Seed int64
	// Parallelism caps the worker count of the offline pipeline's parallel
	// stages (exhaustive-search labelling in Tuner.Tune, the SVM grid
	// search): 0 uses all cores, 1 forces the serial path. Results are
	// deterministic and identical at every setting; when Parallelism != 1
	// the tuned function's variant, feature and constraint callbacks must be
	// safe for concurrent invocation.
	Parallelism int
	// Phases, when non-nil, accumulates per-phase wall time for the pipeline
	// ("label", "scale", "fit" / "grid-search", "distill", "install"); the
	// nil tracker is a valid no-op, so instrumentation costs nothing when
	// unset.
	Phases *obs.PhaseTracker
}

// Report summarizes a training run.
type Report struct {
	Labels        []int
	LabelCounts   map[int]int
	Skipped       int // instances where no variant was feasible
	TrainAccuracy float64
	Grid          ml.GridSearchResult
	// Distilled reports whether Tuner.TuneCtx installed a compiled dispatch
	// artifact on the model it deployed; DistillNote carries the
	// agreement/fallback summary (or the rejection reason). Train leaves
	// both zero: it returns the exact model.
	Distilled   bool
	DistillNote string
}

// buildDataset converts labelled instances to an ml.Dataset, skipping
// all-infeasible rows.
func buildDataset(instances []Instance) (*ml.Dataset, []int, int) {
	ds := &ml.Dataset{}
	var labels []int
	skipped := 0
	for _, in := range instances {
		best, _ := in.Best()
		if best < 0 {
			skipped++
			continue
		}
		ds.Append(in.Features, best)
		labels = append(labels, best)
	}
	return ds, labels, skipped
}

// Train labels the instances by exhaustive search (already embodied in their
// Times), scales features to [-1, 1], fits the SVM (grid-searched when
// opts.GridSearch is set) and returns the paper's exact model. Code that
// serves the model distills it first (DistillModel); Train itself never
// does, so every evaluation of its result judges the exact classifier.
func Train(instances []Instance, opts TrainOptions) (*ml.Model, Report, error) {
	rep := Report{LabelCounts: map[int]int{}}
	ds, labels, skipped := buildDataset(instances)
	rep.Labels = labels
	rep.Skipped = skipped
	for _, l := range labels {
		rep.LabelCounts[l]++
	}
	if ds.Len() == 0 {
		return nil, rep, errors.New("autotuner: no feasible training instances")
	}
	stopScale := opts.Phases.Start("scale")
	scaler := &ml.Scaler{}
	scaledX, err := scaler.FitTransform(ds.X)
	stopScale()
	if err != nil {
		return nil, rep, err
	}
	scaled := &ml.Dataset{X: scaledX, Y: ds.Y}

	var clf ml.Classifier
	if opts.GridSearch {
		grid := opts.Grid
		if grid.Seed == 0 {
			grid.Seed = opts.Seed + 1
		}
		if grid.Parallelism == 0 {
			grid.Parallelism = opts.Parallelism
		}
		stopGrid := opts.Phases.Start("grid-search")
		svm, res, err := ml.GridSearchSVM(scaled, grid)
		stopGrid()
		if err != nil {
			return nil, rep, err
		}
		rep.Grid = res
		clf = svm
	} else {
		clf = ml.DefaultSVM()
		stopFit := opts.Phases.Start("fit")
		err = clf.Fit(scaled)
		stopFit()
		if err != nil {
			return nil, rep, err
		}
	}
	// Stamp provenance: offline tuning is generation 1. CreatedAt stays zero
	// so identical corpora produce byte-identical artifacts (the online
	// retrainer stamps wall-clock time instead).
	model := &ml.Model{Classifier: clf, Scaler: scaler,
		Meta: &ml.ModelMeta{Version: 1, TrainedOn: ds.Len()}}
	rep.TrainAccuracy = ml.Accuracy(clf, scaled)
	return model, rep, nil
}

// fittedRows returns the raw feature vectors Train fits: those of the
// instances with at least one feasible variant, in order.
func fittedRows(instances []Instance) [][]float64 {
	ds, _, _ := buildDataset(instances)
	return ds.X
}

// DistillModel distills model over the raw feature rows (ml.Distill with
// the default options) and installs the compiled program when it passes its
// agreement and fallback gates. Every model the tuner hands to a serving
// context goes through it. Best-effort by design: a rejected or failed
// distillation leaves the exact model untouched and reports why — losing
// the fast path must never lose the model.
func DistillModel(model *ml.Model, rawX [][]float64) (bool, string) {
	c, err := ml.Distill(model, rawX, ml.DistillOptions{})
	if err != nil {
		return false, err.Error()
	}
	model.Compiled = c
	return true, fmt.Sprintf("compiled dispatch: %d nodes depth %d, agreement %.2f%%, exact fallback %.1f%% (margin %.3g)",
		len(c.Nodes), c.Depth(), 100*c.Agreement, 100*c.FallbackRate, c.Margin)
}

// EvalReport aggregates deployment-time selection quality on a test corpus,
// mirroring the quantities Section V reports.
type EvalReport struct {
	// PerfRatios holds best/chosen per evaluable instance (1 = oracle).
	PerfRatios []float64
	// MeanPerf is the average of PerfRatios — the headline "percentage of
	// exhaustive-search performance".
	MeanPerf float64
	// Chosen holds the executed variant per instance (-1 = skipped).
	Chosen []int
	// ExactMatches counts instances where the model picked the oracle
	// variant.
	ExactMatches int
	// Evaluated counts instances where at least one variant was feasible.
	Evaluated int
	// SkippedAllInfeasible counts instances no variant could handle (the
	// paper's "no variant was able to solve 6 matrices").
	SkippedAllInfeasible int
	// FeasibleChosen counts evaluable instances where the executed variant
	// was feasible (the paper's "selected a converging variant 33/35").
	FeasibleChosen int
	// AtRiskInstances counts evaluable instances where at least one variant
	// was infeasible, i.e. a wrong pick could have failed.
	AtRiskInstances int
}

// FractionAbove returns the share of instances achieving at least the given
// performance ratio (used for the paper's ">=70%"/">=90%" SpMV breakdown).
func (r EvalReport) FractionAbove(threshold float64) float64 {
	if len(r.PerfRatios) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.PerfRatios {
		if p >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(r.PerfRatios))
}

// Evaluate replays deployment-time selection over the test instances: the
// model predicts a variant from the (unscaled) features, infeasible picks
// fall back to the suite's default variant, and the achieved cost is
// compared with the exhaustive-search optimum.
func Evaluate(model *ml.Model, s *Suite, test []Instance) EvalReport {
	rep := EvalReport{}
	for _, in := range test {
		best, bestT := in.Best()
		if best < 0 {
			rep.SkippedAllInfeasible++
			rep.Chosen = append(rep.Chosen, -1)
			continue
		}
		rep.Evaluated++
		atRisk := false
		for _, t := range in.Times {
			if math.IsInf(t, 1) {
				atRisk = true
				break
			}
		}
		if atRisk {
			rep.AtRiskInstances++
		}
		pred := model.Predict(in.Features)
		chosen := pred
		if chosen < 0 || chosen >= len(in.Times) || math.IsInf(in.Times[chosen], 1) {
			chosen = s.DefaultVariant
		}
		rep.Chosen = append(rep.Chosen, chosen)
		chosenT := math.Inf(1)
		if chosen >= 0 && chosen < len(in.Times) {
			chosenT = in.Times[chosen]
		}
		if !math.IsInf(chosenT, 1) {
			rep.FeasibleChosen++
			rep.PerfRatios = append(rep.PerfRatios, bestT/chosenT)
		} else {
			rep.PerfRatios = append(rep.PerfRatios, 0)
		}
		if chosen == best {
			rep.ExactMatches++
		}
	}
	if len(rep.PerfRatios) > 0 {
		var sum float64
		for _, p := range rep.PerfRatios {
			sum += p
		}
		rep.MeanPerf = sum / float64(len(rep.PerfRatios))
	}
	return rep
}

// VariantPerf returns, for each variant, its average performance relative to
// the per-instance best (the paper's Fig. 5 bars): infeasible executions
// score 0 on that instance.
func VariantPerf(s *Suite, test []Instance) []float64 {
	if len(s.VariantNames) == 0 {
		return nil
	}
	sums := make([]float64, len(s.VariantNames))
	n := 0
	for _, in := range test {
		best, bestT := in.Best()
		if best < 0 {
			continue
		}
		n++
		for v, t := range in.Times {
			if !math.IsInf(t, 1) && t > 0 {
				sums[v] += bestT / t
			}
		}
	}
	if n == 0 {
		return sums
	}
	for v := range sums {
		sums[v] /= float64(n)
	}
	return sums
}

// Tuner drives the end-to-end online path: it labels live inputs through a
// core.CodeVariant's exhaustive search, trains, and installs the model into
// the variant's context so subsequent Call invocations select adaptively.
type Tuner[In any] struct {
	CV   *core.CodeVariant[In]
	Opts TrainOptions
}

// Tune runs the full offline pipeline on the given training inputs.
//
// The labelling stage — one feature-vector evaluation plus one exhaustive
// search over every variant per input — is embarrassingly parallel, so it
// fans the inputs out over Opts.Parallelism workers (0 = all cores,
// 1 = serial). Results land in input order, so the trained model is
// independent of scheduling; the variant/feature/constraint callbacks must
// tolerate concurrent invocation unless Parallelism is 1.
//
// Labelling is fault-tolerant: a variant that panics, aborts or times out on
// an input scores +Inf for that input (it is infeasible there, exactly like a
// constraint veto), and a feature function that panics marks the whole input
// infeasible — a single broken variant or pathological input degrades the
// corpus instead of aborting the tuning run. Tune is exactly TuneCtx with a
// background context.
func (t *Tuner[In]) Tune(inputs []In) (Report, error) {
	return t.TuneCtx(context.Background(), inputs)
}

// TuneCtx is Tune with caller-controlled cancellation: once ctx is cancelled
// no further inputs are labelled and TuneCtx returns ctx.Err() without
// training or installing a model. With a background context it is
// byte-identical to Tune. The trained model is distilled over the rows it
// was fitted on before it is installed (DistillModel); Report.Distilled and
// Report.DistillNote say how that went.
func (t *Tuner[In]) TuneCtx(ctx context.Context, inputs []In) (Report, error) {
	if t.CV == nil {
		return Report{}, errors.New("autotuner: nil code variant")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	instances := make([]Instance, len(inputs))
	stopLabel := t.Opts.Phases.Start("label")
	cerr := par.ForCtx(ctx, len(inputs), par.Workers(t.Opts.Parallelism), func(i int) {
		instances[i] = t.labelInput(ctx, i, inputs[i])
	})
	stopLabel()
	if cerr != nil {
		return Report{}, cerr
	}
	model, rep, err := Train(instances, t.Opts)
	if err != nil {
		return rep, err
	}
	stopDistill := t.Opts.Phases.Start("distill")
	rep.Distilled, rep.DistillNote = DistillModel(model, fittedRows(instances))
	stopDistill()
	stopInstall := t.Opts.Phases.Start("install")
	err = t.CV.Context().SetModel(t.CV.Policy().Name, model)
	stopInstall()
	if err != nil {
		return rep, fmt.Errorf("autotuner: install tuned model: %w", err)
	}
	return rep, nil
}

// labelInput labels one training input: feature vector + exhaustive-search
// cost vector. The exhaustive search already isolates variant panics (failed
// variants score +Inf); feature-function panics are recovered here and mark
// the input all-infeasible so buildDataset skips it.
func (t *Tuner[In]) labelInput(ctx context.Context, i int, in In) (inst Instance) {
	inst = Instance{ID: fmt.Sprint(i)}
	nv := t.CV.NumVariants()
	defer func() {
		if r := recover(); r != nil {
			// A feature function panicked: this input cannot be labelled.
			inf := make([]float64, nv)
			for j := range inf {
				inf[j] = math.Inf(1)
			}
			inst.Features = make([]float64, len(t.CV.FeatureNames()))
			inst.Times = inf
		}
	}()
	vec, _ := t.CV.FeatureVector(in)
	times, _ := t.CV.ExhaustiveSearchCtx(ctx, in)
	inst.Features = vec
	inst.Times = times
	return inst
}
