package ml

import (
	"math"
	"sync"
)

// This file is the allocation-free prediction front end of Model: the tiered
// PredictTier entry point (compiled artifact first, exact classifier as the
// fallback). All per-call scratch lives in a pooled predictScratch, so the
// steady-state exact path performs zero heap allocations — the remaining
// cost is the scaler pass plus one kernel evaluation per distinct support
// vector.

// predictScratch holds the per-prediction work buffers: the scaled feature
// vector, the kernel-value cache (one slot per distinct support vector) and
// the per-class score accumulator. Buffers grow monotonically and are reused
// across calls via predictPool.
type predictScratch struct {
	scaled []float64
	kv     []float64
	scores []float64
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

// growFloats returns buf resized to n, reallocating only when capacity is
// insufficient.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// PredictTier classifies x and reports which tier decided: TierCompiled when
// the distilled artifact answered with margin clearance, TierExact when the
// full classifier ran (no artifact, or the walk landed within the calibrated
// margin of a decision boundary). The compiled tier is PredictCompiled over
// x: it scales only the features the path reads, with no scratch buffer and
// no pool traffic.
func (m *Model) PredictTier(x []float64) (int, Tier) {
	if pred, ok := m.PredictCompiled(x, nil); ok {
		return pred, TierCompiled
	}
	s := predictPool.Get().(*predictScratch)
	pred := m.classifyScratch(m.scaleScratch(x, s), s)
	predictPool.Put(s)
	return pred, TierExact
}

// PredictCompiled is the compiled rung of the dispatch ladder over the raw
// feature vector x: the walk reads only the entries x[j] that a node on its
// path tests, and scales each as it is read. When fill is non-nil the walk
// calls fill(j) before it reads x[j], so the caller can evaluate features
// on demand; once the walk ends, every entry it read must equal what the
// whole vector would hold for the answer to be PredictTier's. ok=false
// means the exact classifier must decide: no program is installed, the
// program, the scaler and x disagree on the width (the exact path surfaces
// that the usual way), or the walk passed within Margin of a boundary.
func (m *Model) PredictCompiled(x []float64, fill func(int)) (int, bool) {
	c := m.Compiled
	dim := len(x)
	if c == nil || dim != c.Dim {
		return 0, false
	}
	var sc *Scaler
	if m.Scaler != nil && m.Scaler.Fitted() {
		if len(m.Scaler.Min) != dim {
			return 0, false
		}
		sc = m.Scaler
	}
	class, margin := c.walkWith(sc, x, fill)
	return class, margin >= c.Margin
}

// PredictExact classifies x through the exact classifier, bypassing any
// compiled artifact — the ground truth Distill calibrates against.
func (m *Model) PredictExact(x []float64) int {
	s := predictPool.Get().(*predictScratch)
	pred := m.classifyScratch(m.scaleScratch(x, s), s)
	predictPool.Put(s)
	return pred
}

// scaleScratch maps x into the model's scaled feature space using the
// scratch's pooled buffer, or returns x unchanged when no scaler is fitted.
func (m *Model) scaleScratch(x []float64, s *predictScratch) []float64 {
	if m.Scaler == nil || !m.Scaler.Fitted() {
		return x
	}
	s.scaled = growFloats(s.scaled, len(x))
	m.Scaler.TransformInto(s.scaled, x)
	return s.scaled
}

// classifyScratch runs the exact classifier on an already-scaled vector. The
// SVM path reuses the scratch's kernel and score buffers (zero allocations);
// other classifiers take their ordinary Predict.
func (m *Model) classifyScratch(scaled []float64, s *predictScratch) int {
	svm, ok := m.Classifier.(*SVM)
	if !ok {
		return m.Classifier.Predict(scaled)
	}
	return svm.predictScratch(scaled, s)
}

// predictScratch is SVM.Predict with caller-provided buffers: identical
// pairwise soft voting and first-maximum argmax, zero allocations.
func (m *SVM) predictScratch(x []float64, s *predictScratch) int {
	if len(m.classes) == 0 {
		return 0
	}
	var kv []float64
	if m.svRows != nil {
		s.kv = growFloats(s.kv, len(m.svRows))
		kv = s.kv
		m.svKernelsInto(x, kv)
	}
	s.scores = growFloats(s.scores, len(m.classes))
	m.scoresInto(x, kv, s.scores)
	best, bestScore := m.classes[0], math.Inf(-1)
	for i, c := range m.classes {
		if s.scores[i] > bestScore {
			best, bestScore = c, s.scores[i]
		}
	}
	return best
}
