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
// margin of a decision boundary). The compiled tier walks the raw vector
// directly, scaling only the features the path reads — no scratch buffer, no
// pool traffic.
func (m *Model) PredictTier(x []float64) (int, Tier) {
	if c := m.Compiled; c != nil && len(x) == c.Dim {
		if pred, ok := m.predictCompiledLazy(c, x); ok {
			return pred, TierCompiled
		}
	}
	s := predictPool.Get().(*predictScratch)
	pred := m.classifyScratch(m.scaleScratch(x, s), s)
	predictPool.Put(s)
	return pred, TierExact
}

// predictCompiledLazy runs the compiled program over the raw vector, scaling
// each feature as the walk touches it via Scaler.scaleOne — bit-identical to
// transforming the whole vector first, but buffer-free. ok=false routes to
// the exact path (boundary proximity, or a scaler/program dimension skew that
// the exact path will surface the usual way).
func (m *Model) predictCompiledLazy(c *Compiled, x []float64) (int, bool) {
	sc := m.Scaler
	if sc == nil || !sc.Fitted() {
		return c.Predict(x)
	}
	if len(sc.Min) != len(x) {
		return 0, false
	}
	margin := math.Inf(1)
	i := 0
	for {
		n := &c.Nodes[i]
		if n.Left < 0 {
			return c.Classes[n.Class], margin >= c.Margin
		}
		d := sc.scaleOne(int(n.Feature), x[n.Feature]) - n.Threshold
		if d <= 0 {
			if -d < margin {
				margin = -d
			}
			i = int(n.Left)
		} else {
			if d < margin {
				margin = d
			}
			i = int(n.Right)
		}
	}
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
