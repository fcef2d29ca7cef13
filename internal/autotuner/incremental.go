package autotuner

import (
	"errors"
	"math"

	"nitro/internal/ml"
)

// IncrementalOptions configures incremental tuning (the paper's itune mode).
// Every refit fits the active learner's default classifier, ml.DefaultSVM:
// a grid search per refit is prohibitive, and the paper tunes the kernel
// parameters once.
type IncrementalOptions struct {
	// Strategy selects pool points; defaults to Best-vs-Second-Best.
	Strategy ml.QueryStrategy
	// MaxIterations caps oracle labellings (itune(iter=N)).
	MaxIterations int
	// TargetAccuracy, when positive together with a validation set, stops
	// as soon as the model reaches it (itune(acc=T)).
	TargetAccuracy float64
}

// IncrementalResult reports an incremental-tuning run.
type IncrementalResult struct {
	Model *ml.Model
	// Queries is the number of exhaustive-search labellings spent (seed
	// labellings excluded).
	Queries int
	// SeedSize is the number of pre-labelled seed instances.
	SeedSize int
	// PerfCurve, when a test suite was supplied, holds the mean performance
	// (Evaluate.MeanPerf) after the seed model and after every iteration.
	PerfCurve []float64
}

// seedAndPool splits the training instances into a seed set with at least
// one instance of every observed label (the paper requires the seed to cover
// the label set) and an unlabelled active pool.
//
// Infeasible instances (no variant could handle them, best < 0) go into the
// pool, not the bin: per the paper's fallback convention they carry the
// default-variant label when the oracle is asked (see IncrementalTune's
// oracle closure), so the active learner can still spend a query on them and
// learn that such inputs belong to the default. Dropping them — the old
// behaviour — silently shrank the active pool and made the oracle's
// infeasible branch dead code. They are kept out of the seed because their
// label is a convention, not an observation.
func seedAndPool(instances []Instance) (seed []Instance, pool []Instance) {
	seen := map[int]bool{}
	for _, in := range instances {
		best, _ := in.Best()
		if best < 0 {
			pool = append(pool, in)
			continue
		}
		if !seen[best] {
			seen[best] = true
			seed = append(seed, in)
		} else {
			pool = append(pool, in)
		}
	}
	return seed, pool
}

// IncrementalTune runs the active-learning loop over a suite's training
// instances. Feature vectors for the whole pool are assumed cheap (the
// paper's key observation); exhaustive-search labels are only "paid" for the
// seed plus the queried points. When suiteForCurve is non-nil the returned
// PerfCurve tracks test-set performance after each iteration (Fig. 7). Like
// Train it returns the exact model.
func IncrementalTune(s *Suite, opts IncrementalOptions, suiteForCurve *Suite) (IncrementalResult, error) {
	res := IncrementalResult{}
	seed, pool := seedAndPool(s.Train)
	if len(seed) == 0 {
		return res, errors.New("autotuner: no feasible seed instances")
	}
	res.SeedSize = len(seed)

	// Fit the scaler on every pool feature vector — features are computed
	// for all inputs up front; only labels are expensive.
	scaler := &ml.Scaler{}
	var allX [][]float64
	for _, in := range s.Train {
		allX = append(allX, in.Features)
	}
	if err := scaler.Fit(allX); err != nil {
		return res, err
	}

	seedX := make([][]float64, len(seed))
	seedY := make([]int, len(seed))
	for i, in := range seed {
		seedX[i] = scaler.Transform(in.Features)
		seedY[i], _ = in.Best()
	}
	poolX := make([][]float64, len(pool))
	for i, in := range pool {
		poolX[i] = scaler.Transform(in.Features)
	}
	oracle := func(i int) int {
		best, _ := pool[i].Best()
		if best < 0 {
			// Infeasible input: exhaustive search found no variant that can
			// handle it, so it is labelled with the deployment-time fallback
			// — the default variant — per the paper's convention. Reachable
			// because seedAndPool routes infeasible instances into the pool.
			best = s.DefaultVariant
		}
		return best
	}
	al, err := ml.NewActiveLearner(seedX, seedY, poolX, oracle)
	if err != nil {
		return res, err
	}
	if opts.Strategy != nil {
		al.Strategy = opts.Strategy
	}
	if err := al.Refit(); err != nil {
		return res, err
	}

	record := func() {
		if suiteForCurve == nil {
			return
		}
		m := &ml.Model{Classifier: al.Classifier(), Scaler: scaler}
		rep := Evaluate(m, suiteForCurve, suiteForCurve.Test)
		res.PerfCurve = append(res.PerfCurve, rep.MeanPerf)
	}
	record()

	maxIters := opts.MaxIterations
	if maxIters <= 0 {
		maxIters = len(pool)
	}
	var validDS *ml.Dataset
	if opts.TargetAccuracy > 0 && suiteForCurve != nil {
		validDS = &ml.Dataset{}
		for _, in := range suiteForCurve.Test {
			best, _ := in.Best()
			if best >= 0 {
				validDS.Append(scaler.Transform(in.Features), best)
			}
		}
	}
	for i := 0; i < maxIters; i++ {
		if validDS != nil && ml.Accuracy(al.Classifier(), validDS) >= opts.TargetAccuracy {
			break
		}
		ok, err := al.Step()
		if err != nil {
			return res, err
		}
		if !ok {
			break
		}
		record()
	}
	res.Queries = al.Queries()
	res.Model = &ml.Model{Classifier: al.Classifier(), Scaler: scaler,
		Meta: &ml.ModelMeta{Version: 1, TrainedOn: len(seed) + al.Queries()}}
	return res, nil
}

// FullTrainPerf trains on the complete suite and returns the test-set mean
// performance — the Fig. 7 reference line incremental tuning is compared
// against.
func FullTrainPerf(s *Suite, opts TrainOptions) (float64, *ml.Model, error) {
	model, _, err := Train(s.Train, opts)
	if err != nil {
		return 0, nil, err
	}
	rep := Evaluate(model, s, s.Test)
	return rep.MeanPerf, model, nil
}

// OracleMeanTime returns the average exhaustive-search cost over evaluable
// test instances, for reporting absolute scales.
func OracleMeanTime(test []Instance) float64 {
	var sum float64
	n := 0
	for _, in := range test {
		if _, t := in.Best(); !math.IsInf(t, 1) {
			sum += t
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CrossValidateSuite estimates generalization with k-fold cross-validation
// over the suite's training instances, scored by selection performance (mean
// best/chosen ratio) rather than bare label accuracy — a wrong pick that is
// nearly as fast as the oracle should not count like a disaster.
func CrossValidateSuite(s *Suite, opts TrainOptions, k int) (float64, error) {
	feasible := make([]Instance, 0, len(s.Train))
	for _, in := range s.Train {
		if b, _ := in.Best(); b >= 0 {
			feasible = append(feasible, in)
		}
	}
	if len(feasible) < 2 {
		return 0, errors.New("autotuner: not enough feasible instances for cross-validation")
	}
	trains, tests, err := ml.KFold(len(feasible), k, opts.Seed+7)
	if err != nil {
		return 0, err
	}
	var sum float64
	folds := 0
	for f := range trains {
		var trainSet, testSet []Instance
		for _, i := range trains[f] {
			trainSet = append(trainSet, feasible[i])
		}
		for _, i := range tests[f] {
			testSet = append(testSet, feasible[i])
		}
		model, _, err := Train(trainSet, opts)
		if err != nil {
			return 0, err
		}
		sum += Evaluate(model, s, testSet).MeanPerf
		folds++
	}
	return sum / float64(folds), nil
}
