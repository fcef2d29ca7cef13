package ml

import (
	"errors"
	"fmt"
	"math"

	"nitro/internal/par"
)

// Ensemble is an agreement-weighted voting committee over the repo's base
// learners (SVM, kNN, CART, logistic). It implements Classifier, so it rides
// every existing surface unchanged: the Model envelope, the scaler, Distill
// (which labels its corpus through Predict), RankedClasses fallback chains
// and the registry/canary artifact plane.
//
// Beyond a bare argmax it exposes what a single model cannot: a calibrated
// per-prediction confidence. Fit runs a deterministic k-fold pass, weighs
// each member by its out-of-fold accuracy, and bins the committee's weighted
// agreement against its actual out-of-fold correctness — a reliability curve.
// Confidence(x) reads that curve, so "0.9" means "predictions that looked
// like this were right ~90% of the time on held-out data", not a raw vote
// share.
type Ensemble struct {
	// Folds is the cross-validation fold count used by Fit to estimate member
	// weights and fit the calibration curve (default 3).
	Folds int
	// Seed fixes the fold assignment so Fit is deterministic.
	Seed int64
	// Parallelism caps the goroutines fitting member×fold jobs: 0 uses all
	// cores, 1 is serial. The fitted ensemble is bit-identical at any setting.
	Parallelism int

	members []Classifier
	weights []float64 // per-member vote weight, normalized to sum 1
	classes []int
	calib   []CalibBin
}

// CalibBin is one bucket of the ensemble's reliability curve: of the
// out-of-fold predictions whose weighted agreement fell in [Lo, Hi), N were
// made and Correct were right.
type CalibBin struct {
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	N       int     `json:"n"`
	Correct int     `json:"correct"`
}

const calibBins = 5

// ErrNestedEnsemble rejects ensembles as ensemble members: the calibration
// story (and the serialized envelope) is defined for one committee level.
var ErrNestedEnsemble = errors.New("ml: ensembles cannot contain ensembles")

// NewEnsemble returns an untrained committee over the given members; with no
// arguments it uses the default stable: RBF SVM, 3-NN, CART and softmax
// logistic regression.
func NewEnsemble(members ...Classifier) *Ensemble {
	return &Ensemble{members: members}
}

// DefaultEnsembleMembers returns freshly constructed default members: the
// same four learners the single-model path can train individually.
func DefaultEnsembleMembers() []Classifier {
	return []Classifier{
		DefaultSVM(),
		NewKNN(3),
		NewDecisionTree(0, 0),
		NewLogistic(0, 0, 0),
	}
}

// Name implements Classifier.
func (e *Ensemble) Name() string { return "ensemble" }

// Classes implements Classifier.
func (e *Ensemble) Classes() []int { return e.classes }

// Members returns the fitted member classifiers (read-only).
func (e *Ensemble) Members() []Classifier { return e.members }

// Weights returns the per-member vote weights, aligned with Members and
// normalized to sum 1.
func (e *Ensemble) Weights() []float64 { return e.weights }

// Calibration returns the fitted reliability curve (nil when Fit had too few
// samples for cross-validation).
func (e *Ensemble) Calibration() []CalibBin { return e.calib }

// freshLike builds an untrained copy of a member carrying its
// hyper-parameters, for out-of-fold refits. Unknown classifier types return
// nil; their weight falls back to training-set accuracy.
func freshLike(c Classifier) Classifier {
	switch v := c.(type) {
	case *SVM:
		return NewSVM(v.Kernel(), v.C)
	case *KNN:
		return NewKNN(v.K)
	case *DecisionTree:
		return NewDecisionTree(v.MaxDepth, v.MinLeafSamples)
	case *Logistic:
		return NewLogistic(v.LR, v.L2, v.Iters)
	}
	return nil
}

// Fit implements Classifier. It trains every member on ds (member×fold jobs
// fan out over internal/par), weighs members by out-of-fold accuracy, and
// fits the agreement→accuracy calibration curve. Deterministic for a given
// (ds, Seed, Folds) at any parallelism.
func (e *Ensemble) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return errors.New("ml: empty training set")
	}
	if len(e.members) == 0 {
		e.members = DefaultEnsembleMembers()
	}
	for _, m := range e.members {
		if _, ok := m.(*Ensemble); ok {
			return ErrNestedEnsemble
		}
	}
	e.classes = ds.Classes()
	folds := e.Folds
	if folds <= 0 {
		folds = 3
	}

	nm := len(e.members)
	// Out-of-fold predicted labels, per member per sample; oof[mi] == nil
	// means member mi has no CV estimate (unknown type or dataset too small).
	oof := make([][]int, nm)
	canCV := len(e.classes) > 1 && ds.Len() >= 2*folds
	var trains, tests [][]int
	if canCV {
		var err error
		trains, tests, err = KFold(ds.Len(), folds, e.Seed)
		if err != nil {
			return err
		}
		for mi := range oof {
			if freshLike(e.members[mi]) != nil {
				oof[mi] = make([]int, ds.Len())
			}
		}
	}

	// One parallel sweep: nm final fits plus nm×folds out-of-fold fits. Every
	// write lands in a job-indexed slot, so completion order never matters.
	cvJobs := 0
	if canCV {
		cvJobs = nm * folds
	}
	errs := make([]error, nm+cvJobs)
	par.For(nm+cvJobs, par.Workers(e.Parallelism), func(p int) {
		if p < nm {
			errs[p] = e.members[p].Fit(ds)
			return
		}
		q := p - nm
		mi, fi := q/folds, q%folds
		if oof[mi] == nil {
			return
		}
		clf := freshLike(e.members[mi])
		if err := clf.Fit(ds.Subset(trains[fi])); err != nil {
			errs[p] = err
			return
		}
		for _, i := range tests[fi] {
			oof[mi][i] = clf.Predict(ds.X[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("ml: ensemble member fit: %w", err)
		}
	}

	// Member weights: out-of-fold accuracy where available, training-set
	// accuracy otherwise, floored so no member is silenced entirely, then
	// normalized to sum 1.
	e.weights = make([]float64, nm)
	for mi, m := range e.members {
		var acc float64
		if oof[mi] != nil {
			hits := 0
			for i, y := range ds.Y {
				if oof[mi][i] == y {
					hits++
				}
			}
			acc = float64(hits) / float64(ds.Len())
		} else {
			acc = Accuracy(m, ds)
		}
		e.weights[mi] = math.Max(acc, 0.05)
	}
	normalize(e.weights)

	// Reliability curve: bin the committee's weighted out-of-fold agreement
	// against whether the committee's out-of-fold vote was actually right.
	e.calib = nil
	if canCV {
		e.calib = make([]CalibBin, calibBins)
		for b := range e.calib {
			e.calib[b].Lo = float64(b) / calibBins
			e.calib[b].Hi = float64(b+1) / calibBins
		}
		labels := make([]int, 0, nm)
		ws := make([]float64, 0, nm)
		for i, y := range ds.Y {
			labels, ws = labels[:0], ws[:0]
			for mi := range e.members {
				if oof[mi] != nil {
					labels = append(labels, oof[mi][i])
					ws = append(ws, e.weights[mi])
				}
			}
			if len(labels) == 0 {
				e.calib = nil
				break
			}
			pred, agree := weightedVote(labels, ws, e.classes)
			b := int(agree * calibBins)
			if b >= calibBins {
				b = calibBins - 1
			}
			e.calib[b].N++
			if pred == y {
				e.calib[b].Correct++
			}
		}
	}
	return nil
}

func normalize(w []float64) {
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= sum
	}
}

// weightedVote tallies weighted member labels and returns the winning class
// (ties break toward classes order, matching Predict) and the winner's share
// of the total weight.
func weightedVote(labels []int, ws []float64, classes []int) (pred int, share float64) {
	votes := make(map[int]float64, len(classes))
	var total float64
	for i, l := range labels {
		votes[l] += ws[i]
		total += ws[i]
	}
	best, bestV := 0, math.Inf(-1)
	for ci, c := range classes {
		if v := votes[c]; v > bestV {
			best, bestV = ci, v
		}
	}
	if len(classes) == 0 {
		return 0, 0
	}
	if total <= 0 {
		return classes[best], 0
	}
	return classes[best], votes[classes[best]] / total
}

// Scores implements Classifier: the weighted sum of each member's score
// vector normalized to a distribution, aligned with Classes(). The result
// sums to ~1, so it reads as a committee probability.
func (e *Ensemble) Scores(x []float64) []float64 {
	out := make([]float64, len(e.classes))
	if len(e.members) == 0 || len(e.classes) == 0 {
		return out
	}
	idx := make(map[int]int, len(e.classes))
	for i, c := range e.classes {
		idx[c] = i
	}
	for mi, m := range e.members {
		w := e.memberWeight(mi)
		mc := m.Classes()
		if len(mc) == 0 {
			continue
		}
		s := m.Scores(x)
		if len(s) < len(mc) {
			continue
		}
		var sum float64
		for j := range mc {
			if s[j] > 0 {
				sum += s[j]
			}
		}
		for j, c := range mc {
			oi, ok := idx[c]
			if !ok {
				continue
			}
			if sum > 0 {
				if s[j] > 0 {
					out[oi] += w * s[j] / sum
				}
			} else {
				out[oi] += w / float64(len(mc))
			}
		}
	}
	return out
}

func (e *Ensemble) memberWeight(mi int) float64 {
	if mi < len(e.weights) {
		return e.weights[mi]
	}
	return 1 / float64(len(e.members))
}

// Predict implements Classifier: argmax of Scores with a first-wins tie
// break, so RankedClasses(x)[0] == Predict(x) holds like every other member.
func (e *Ensemble) Predict(x []float64) int {
	scores := e.Scores(x)
	if len(e.classes) == 0 {
		return 0
	}
	best, bestS := 0, math.Inf(-1)
	for i, s := range scores {
		if s > bestS {
			best, bestS = i, s
		}
	}
	return e.classes[best]
}

// Agreement returns the weight share of members whose own prediction matches
// the committee's, in [0,1]. This is the raw (uncalibrated) confidence
// signal.
func (e *Ensemble) Agreement(x []float64) float64 {
	if len(e.members) == 0 {
		return 0
	}
	pred := e.Predict(x)
	var agree, total float64
	for mi, m := range e.members {
		w := e.memberWeight(mi)
		total += w
		if m.Predict(x) == pred {
			agree += w
		}
	}
	if total <= 0 {
		return 0
	}
	return agree / total
}

// Confidence maps the committee's weighted agreement on x through the fitted
// reliability curve, yielding a calibrated estimate of P(prediction correct).
// Without a curve (tiny training set) it returns the raw agreement.
func (e *Ensemble) Confidence(x []float64) float64 {
	return e.calibrate(e.Agreement(x))
}

// calibrate interpolates piecewise-linearly between the centers of non-empty
// reliability bins, clamped to [0,1]; with no usable bins the raw agreement
// passes through.
func (e *Ensemble) calibrate(agree float64) float64 {
	type pt struct{ x, y float64 }
	var pts []pt
	for _, b := range e.calib {
		if b.N > 0 {
			pts = append(pts, pt{(b.Lo + b.Hi) / 2, float64(b.Correct) / float64(b.N)})
		}
	}
	if len(pts) == 0 {
		return clamp01(agree)
	}
	if agree <= pts[0].x {
		return clamp01(pts[0].y)
	}
	if agree >= pts[len(pts)-1].x {
		return clamp01(pts[len(pts)-1].y)
	}
	for i := 1; i < len(pts); i++ {
		if agree <= pts[i].x {
			a, b := pts[i-1], pts[i]
			t := (agree - a.x) / (b.x - a.x)
			return clamp01(a.y + t*(b.y-a.y))
		}
	}
	return clamp01(pts[len(pts)-1].y)
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Confidence scales x through the model's scaler and returns a calibrated
// estimate (in [0,1]) that Predict(x) names the truly fastest variant. For
// an ensemble classifier this reads the fitted reliability curve; for single
// models it falls back to the top score's share of the (non-negative) score
// mass — uncalibrated but monotone in the model's own margin. Explain
// reports it with every prediction.
func (m *Model) Confidence(x []float64) float64 {
	if m == nil || m.Classifier == nil {
		return 0
	}
	if m.Scaler != nil && m.Scaler.Fitted() {
		x = m.Scaler.Transform(x)
	}
	if e, ok := m.Classifier.(*Ensemble); ok {
		return e.Confidence(x)
	}
	scores := m.Classifier.Scores(x)
	if len(scores) == 0 {
		return 0
	}
	if len(scores) == 1 {
		return 1
	}
	var sum, best float64
	for _, s := range scores {
		if s > 0 {
			sum += s
		}
		if s > best {
			best = s
		}
	}
	if sum <= 0 {
		return 1 / float64(len(scores))
	}
	return clamp01(best / sum)
}
