package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Classifier is the interface the active learner, CrossValidate and the
// distiller program against. The SVM is the only classifier a model
// artifact carries (the paper's svm_classifier()); the distiller's
// DecisionTree implements it too.
type Classifier interface {
	// Fit trains on the dataset. Feature scaling is the caller's concern.
	Fit(ds *Dataset) error
	// Predict returns the predicted class label of x.
	Predict(x []float64) int
	// Scores returns one confidence per known class, aligned with Classes;
	// higher means more confident. Used by Best-vs-Second-Best selection.
	Scores(x []float64) []float64
	// Classes returns the sorted labels the classifier was trained on.
	Classes() []int
	// Name identifies the classifier kind.
	Name() string
}

// defaultSVMEps is the KKT-violation stopping tolerance NewSVM installs —
// libSVM's default.
const defaultSVMEps = 1e-3

// SVM is a multi-class C-SVC with one-vs-one decomposition, mirroring
// libSVM's architecture. The zero value is unusable; construct with NewSVM.
type SVM struct {
	C       float64
	Eps     float64
	MaxIter int
	kernel  Kernel

	classes []int
	pairs   []svmPair
	// svRows holds the distinct support vectors across all one-vs-one pairs.
	// At deployment time, pairs frequently share support vectors (a training
	// row participates in every pair involving its class), so Scores and
	// DecisionValues evaluate K(sv, x) once per distinct vector here and let
	// each pair look the value up via svmPair.svID instead of re-evaluating
	// the kernel per pair.
	//
	// Concurrency audit (deployment runtime): svRows, classIdx, classes,
	// pairs and kernel are all written only by Fit/fit or by model
	// deserialization, and read-only afterwards; Scores, Predict and
	// DecisionValues allocate their scratch (kv, out) per call.
	// A fitted *SVM is therefore safe for unlimited concurrent prediction —
	// the property core.CodeVariant's lock-free predict path relies on.
	svRows [][]float64
	// classIdx maps class label -> slot in classes, precomputed at fit time
	// so the Scores hot path does not rebuild (and reallocate) the map on
	// every prediction.
	classIdx map[int]int
}

type svmPair struct {
	a, b int // class labels; positive decision votes for a
	sol  *smoResult
	// svID maps each of sol's support vectors to its slot in SVM.svRows
	// (nil when the shared cache is unavailable; decision then falls back to
	// direct kernel evaluation).
	svID []int
}

// NewSVM returns an untrained SVM with the given kernel and box constraint.
func NewSVM(k Kernel, c float64) *SVM {
	return &SVM{C: c, Eps: defaultSVMEps, kernel: k}
}

// DefaultSVM returns the paper's default configuration: RBF kernel with
// gamma = 1/dim (set at Fit time if Gamma is zero) and C = 1. Use GridSearch
// to tune (C, gamma) by cross-validation as the paper does.
func DefaultSVM() *SVM { return NewSVM(RBFKernel{}, 1) }

// Kernel returns the (possibly Fit-adjusted) kernel.
func (m *SVM) Kernel() Kernel { return m.kernel }

// Name implements Classifier.
func (m *SVM) Name() string { return "svm" }

// Classes implements Classifier.
func (m *SVM) Classes() []int { return m.classes }

// Fit implements Classifier: it trains k(k-1)/2 binary machines, one per
// unordered pair of classes.
func (m *SVM) Fit(ds *Dataset) error { return m.fit(ds, nil) }

// fit trains the one-vs-one ensemble. When km is non-nil it must be the
// Gram matrix of ds.X under m.kernel (with any zero RBF gamma already
// resolved); each pair then trains on an index-subset gather of km instead
// of re-evaluating the kernel — the path the grid search's gamma-keyed
// kernel cache uses. Both paths produce bit-identical models.
func (m *SVM) fit(ds *Dataset, km [][]float64) error {
	if ds == nil || ds.Len() == 0 {
		return errors.New("ml: empty training set")
	}
	if rbf, ok := m.kernel.(RBFKernel); ok && rbf.Gamma == 0 {
		rbf.Gamma = 1 / float64(max(ds.Dim(), 1))
		m.kernel = rbf
	}
	m.classes = ds.Classes()
	if len(m.classes) < 1 {
		return errors.New("ml: no classes")
	}
	m.pairs = nil
	m.svRows = nil
	m.buildClassIndex()
	if len(m.classes) == 1 {
		return nil // degenerate: always predict the single class
	}
	// seen assigns each distinct support vector one slot in the shared
	// svRows table, deduplicating across pairs (svSlot).
	seen := make(map[string]int)
	for i := 0; i < len(m.classes); i++ {
		for j := i + 1; j < len(m.classes); j++ {
			a, b := m.classes[i], m.classes[j]
			var gi []int
			var x [][]float64
			var y []float64
			for t, lab := range ds.Y {
				switch lab {
				case a:
					gi = append(gi, t)
					x = append(x, ds.X[t])
					y = append(y, 1)
				case b:
					gi = append(gi, t)
					x = append(x, ds.X[t])
					y = append(y, -1)
				}
			}
			var sol *smoResult
			var err error
			if km != nil {
				sol, err = solveBinaryKM(x, y, gatherKM(km, gi), m.C, m.Eps, m.MaxIter)
			} else {
				sol, err = solveBinary(x, y, m.kernel, m.C, m.Eps, m.MaxIter)
			}
			if err != nil {
				return fmt.Errorf("ml: pair (%d,%d): %w", a, b, err)
			}
			p := svmPair{a: a, b: b, sol: sol, svID: make([]int, len(sol.svX))}
			for s, sv := range sol.svX {
				p.svID[s] = m.svSlot(seen, sv)
			}
			m.pairs = append(m.pairs, p)
		}
	}
	return nil
}

// Predict implements Classifier using pairwise voting with soft-score
// tie-breaking.
func (m *SVM) Predict(x []float64) int {
	if len(m.classes) == 0 {
		return 0
	}
	scores := m.Scores(x)
	best, bestScore := m.classes[0], math.Inf(-1)
	for i, c := range m.classes {
		if scores[i] > bestScore {
			best, bestScore = c, scores[i]
		}
	}
	return best
}

// svKernels evaluates K(sv, x) once per distinct support vector in the
// shared svRows table, or returns nil when the cache is unavailable.
// Because the kernel is a pure function, reusing one evaluation across all
// pairs sharing a support vector is bit-identical to per-pair evaluation.
func (m *SVM) svKernels(x []float64) []float64 {
	if m.svRows == nil {
		return nil
	}
	kv := make([]float64, len(m.svRows))
	m.svKernelsInto(x, kv)
	return kv
}

// svKernelsInto fills kv (len == len(svRows)) with K(sv, x) per distinct
// support vector — the allocation-free core of svKernels.
func (m *SVM) svKernelsInto(x, kv []float64) {
	for i, sv := range m.svRows {
		kv[i] = m.kernel.Eval(sv, x)
	}
}

// pairDecision evaluates one pair's decision value, reading kernel values
// from kv (the shared support-vector cache) when available.
func (m *SVM) pairDecision(p *svmPair, x []float64, kv []float64) float64 {
	if kv == nil || p.svID == nil {
		return p.sol.decision(m.kernel, x)
	}
	var s float64
	for i, id := range p.svID {
		s += p.sol.svCoef[i] * kv[id]
	}
	return s - p.sol.rho
}

// Scores implements Classifier. Each pairwise decision value d contributes a
// sigmoid-soft vote sigma(d) to the winning class and 1-sigma(d) to the
// loser, which yields the smooth per-class confidences the
// Best-vs-Second-Best heuristic needs. One-vs-one pairs share support
// vectors, so K(sv, x) is evaluated once per distinct vector (svKernels)
// rather than once per pair.
func (m *SVM) Scores(x []float64) []float64 {
	out := make([]float64, len(m.classes))
	m.scoresInto(x, m.svKernels(x), out)
	return out
}

// scoresInto is the allocation-free core of Scores: it fills out (len ==
// len(classes)) with the per-class soft votes, reading kernel values from kv
// when non-nil. The dispatch hot path calls it with pooled kv/out buffers.
func (m *SVM) scoresInto(x, kv, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if len(m.classes) == 1 {
		out[0] = 1
		return
	}
	idx := m.classIdx
	if idx == nil { // e.g. a hand-assembled SVM in tests
		idx = make(map[int]int, len(m.classes))
		for i, c := range m.classes {
			idx[c] = i
		}
	}
	for i := range m.pairs {
		p := &m.pairs[i]
		d := m.pairDecision(p, x, kv)
		s := 1 / (1 + math.Exp(-2*d))
		out[idx[p.a]] += s
		out[idx[p.b]] += 1 - s
	}
}

// DecisionValues returns the raw pairwise decision values (one per trained
// class pair, in pair order), for diagnostics. Like Scores, it shares one
// kernel evaluation per distinct support vector across pairs.
func (m *SVM) DecisionValues(x []float64) []float64 {
	out := make([]float64, len(m.pairs))
	kv := m.svKernels(x)
	for i := range m.pairs {
		out[i] = m.pairDecision(&m.pairs[i], x, kv)
	}
	return out
}

// buildClassIndex precomputes the label -> slot lookup Scores uses on every
// prediction. Called whenever classes are (re)assigned — fit and model
// deserialization — so the predict hot path never allocates the map.
func (m *SVM) buildClassIndex() {
	m.classIdx = make(map[int]int, len(m.classes))
	for i, c := range m.classes {
		m.classIdx[c] = i
	}
}

// buildSVCache rebuilds the shared support-vector table from the pairs' own
// support vectors, for models decoded from the per-pair artifact form. It
// walks the pairs in fit's order, so it rebuilds the table fit built.
func (m *SVM) buildSVCache() {
	m.buildClassIndex()
	m.svRows = nil
	seen := make(map[string]int)
	for i := range m.pairs {
		p := &m.pairs[i]
		p.svID = make([]int, len(p.sol.svX))
		for s, sv := range p.sol.svX {
			p.svID[s] = m.svSlot(seen, sv)
		}
	}
}

// svSlot returns sv's slot in the shared svRows table, appending sv when no
// row has its content yet; seen maps content to slot. Equal content implies
// equal kernel values, so pairs sharing a slot read bit-identical values,
// and training rows that repeat (observations of one input) cost one
// kernel evaluation.
func (m *SVM) svSlot(seen map[string]int, sv []float64) int {
	key := make([]byte, 0, 8*len(sv))
	for _, v := range sv {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	id, ok := seen[string(key)]
	if !ok {
		id = len(m.svRows)
		m.svRows = append(m.svRows, sv)
		seen[string(key)] = id
	}
	return id
}

// NumDistinctSupportVectors returns the size of the shared support-vector
// table — the number of kernel evaluations one Scores call costs.
func (m *SVM) NumDistinctSupportVectors() int { return len(m.svRows) }

// NumSupportVectors returns the total support-vector count across pairs.
func (m *SVM) NumSupportVectors() int {
	n := 0
	for _, p := range m.pairs {
		n += len(p.sol.svX)
	}
	return n
}

// BvSBMargin returns the Best-versus-Second-Best margin of clf on x: the gap
// between the highest and second-highest class confidence. Small margins mark
// the most informative points to label next in active learning (Joshi et al.,
// the heuristic cited by the paper).
func BvSBMargin(clf Classifier, x []float64) float64 {
	scores := clf.Scores(x)
	if len(scores) < 2 {
		return math.Inf(1)
	}
	best, second := math.Inf(-1), math.Inf(-1)
	for _, s := range scores {
		if s > best {
			second = best
			best = s
		} else if s > second {
			second = s
		}
	}
	return best - second
}
