package autotuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"nitro/internal/ml"
)

// Observation is one live deployment observation an adaptation engine
// collected for retraining: a feature vector plus the observed per-variant
// timings (+Inf for variants that were vetoed, quarantined or failed when
// the input was explored — the same convention as Instance.Times).
type Observation struct {
	// Seq orders observations by when they were taken; the retrainer's
	// holdout split reserves the most recent observations for validation.
	Seq int64
	// Features is the unscaled feature vector.
	Features []float64
	// Times holds the observed optimization value of every variant.
	Times []float64
}

// RetrainOptions configures RetrainFromObservations.
type RetrainOptions struct {
	TrainOptions
	// Incremental seeds the paper's BvSB active-learning loop with the
	// observations instead of batch-training on all of them; MaxIterations
	// caps the oracle queries exactly as in incremental tuning.
	Incremental   bool
	MaxIterations int
	// HoldoutFraction is the share of the most recent observations reserved
	// for validating the candidate against the incumbent (default 0.25,
	// clamped to keep at least one training and one holdout observation).
	HoldoutFraction float64
	// MinImprovement is how much the candidate's holdout selection
	// performance must exceed the incumbent's to be accepted; 0 accepts
	// ties (the candidate is trained on fresher data).
	MinImprovement float64
}

// RetrainResult reports one retraining run: the candidate model, the
// holdout verdict, and how the candidate compared with the incumbent.
type RetrainResult struct {
	// Model is the candidate (stamped with the incumbent's version + 1);
	// installed by the caller only when Accepted.
	Model *ml.Model
	// Accepted reports whether the candidate beat (or, with zero
	// MinImprovement, matched) the incumbent on the holdout.
	Accepted bool
	// TrainSize / HoldoutSize are the corpus split sizes.
	TrainSize, HoldoutSize int
	// CandidatePerf / IncumbentPerf are the holdout mean selection
	// performances (best/chosen; 1 = oracle). IncumbentPerf is 0 when no
	// incumbent was installed.
	CandidatePerf, IncumbentPerf float64
	// CandidateMismatch / IncumbentMismatch are the holdout mismatch rates
	// (share of evaluable holdout observations where the model's pick was
	// not the observed best).
	CandidateMismatch, IncumbentMismatch float64
	// Queries counts BvSB oracle labellings when Incremental (0 otherwise).
	Queries int
}

// errNoObservations is returned when the observation corpus cannot support a
// retrain (too few, or no feasible labels).
var errNoObservations = errors.New("autotuner: not enough observations to retrain")

// RetrainFromObservations is the online counterpart of TuneCtx: instead of
// labelling fresh inputs by exhaustive search, it consumes observations an
// adaptation engine already paid for at deployment time (explored live
// inputs with full per-variant timings), fits a candidate model, and
// validates it against the incumbent on a holdout of the most recent
// observations.
//
// The split is temporal: the newest HoldoutFraction of the observations
// (by Seq) validates, the rest trains — a candidate must prove itself on
// data it has not seen and that best reflects the drifted distribution.
// The candidate is stamped incumbent.Version+1 and returned regardless of
// the verdict; the caller hot-swaps it only when Accepted (and otherwise
// rolls back to the incumbent by doing nothing). An accepted candidate is
// distilled after the verdict (DistillModel), so it carries a compiled
// program whenever one passes its gates; a rejected one stays exact.
//
// ctx cancels the run between pipeline stages; the candidate is NOT
// installed by this function, so cancellation never leaves a half-deployed
// model.
func (t *Tuner[In]) RetrainFromObservations(ctx context.Context, obs []Observation, incumbent *ml.Model, opts RetrainOptions) (RetrainResult, error) {
	res := RetrainResult{}
	if t.CV == nil {
		return res, errors.New("autotuner: nil code variant")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(obs) < 2 {
		return res, fmt.Errorf("%w: have %d, need >= 2", errNoObservations, len(obs))
	}

	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	frac := opts.HoldoutFraction
	if frac <= 0 {
		frac = 0.25
	}
	hold := int(math.Ceil(frac * float64(len(sorted))))
	if hold < 1 {
		hold = 1
	}
	if hold >= len(sorted) {
		hold = len(sorted) - 1
	}
	toInstances := func(in []Observation) []Instance {
		out := make([]Instance, len(in))
		for i, o := range in {
			out[i] = Instance{ID: fmt.Sprintf("obs-%d", o.Seq), Features: o.Features, Times: o.Times}
		}
		return out
	}
	train := toInstances(sorted[:len(sorted)-hold])
	holdout := toInstances(sorted[len(sorted)-hold:])
	res.TrainSize, res.HoldoutSize = len(train), len(holdout)

	suite := &Suite{
		Name:           t.CV.Policy().Name,
		VariantNames:   t.CV.VariantNames(),
		FeatureNames:   t.CV.FeatureNames(),
		DefaultVariant: t.CV.DefaultIndex(),
		Train:          train,
		Test:           holdout,
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	var candidate *ml.Model
	if opts.Incremental {
		inc, err := IncrementalTune(suite, IncrementalOptions{MaxIterations: opts.MaxIterations}, nil)
		if err != nil {
			return res, fmt.Errorf("autotuner: retrain (incremental): %w", err)
		}
		candidate = inc.Model
		res.Queries = inc.Queries
	} else {
		m, _, err := Train(train, opts.TrainOptions)
		if err != nil {
			return res, fmt.Errorf("autotuner: retrain: %w", err)
		}
		candidate = m
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	candidate.Meta = &ml.ModelMeta{
		Version:   incumbent.Version() + 1,
		CreatedAt: time.Now().UTC(),
		TrainedOn: len(train),
	}
	res.Model = candidate

	candEval := Evaluate(candidate, suite, holdout)
	res.CandidatePerf = candEval.MeanPerf
	res.CandidateMismatch = mismatchRate(candEval)
	if incumbent != nil {
		incEval := Evaluate(incumbent, suite, holdout)
		res.IncumbentPerf = incEval.MeanPerf
		res.IncumbentMismatch = mismatchRate(incEval)
		res.Accepted = res.CandidatePerf >= res.IncumbentPerf+opts.MinImprovement
	} else {
		res.Accepted = true
	}
	if res.Accepted {
		// The holdout judged the exact candidate; only the model that will
		// be installed pays for distillation, over every observation in the
		// order the caller passed them.
		rawX := make([][]float64, len(obs))
		for i, o := range obs {
			rawX[i] = o.Features
		}
		DistillModel(candidate, rawX)
	}
	return res, nil
}

// mismatchRate is the share of evaluable instances where the model did not
// pick the observed-best variant.
func mismatchRate(e EvalReport) float64 {
	if e.Evaluated == 0 {
		return 0
	}
	return 1 - float64(e.ExactMatches)/float64(e.Evaluated)
}
