package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// ErrEnsembleRemoved rejects artifacts of the "ensemble" kind, which older
// releases wrote for the committee classifier. The committee is gone, so
// such a model must be retrained with one of the remaining classifiers
// before it can be served.
var ErrEnsembleRemoved = errors.New(`ml: the "ensemble" model kind was removed; retrain with classifier svm, knn, tree or logistic`)

// ModelMeta stamps a trained model with its provenance, so deployment logs,
// statistics and hot-swap events can attribute which model served a call.
// Old model files without a meta block deserialize with a nil Meta — the
// stamp is additive and fully backward compatible.
type ModelMeta struct {
	// Version is a monotonically increasing model generation: 1 for the
	// first offline tuning, incremented by every accepted retrain.
	Version int `json:"version"`
	// CreatedAt records when the model was fitted (UTC). The offline tuner
	// leaves it zero so identical inputs produce byte-identical artifacts;
	// the online retrainer stamps wall-clock time.
	CreatedAt time.Time `json:"created_at"`
	// TrainedOn counts the labelled instances the classifier was fitted on.
	TrainedOn int `json:"trained_on"`
}

// Model is the serializable envelope Nitro persists after tuning: the fitted
// classifier plus the feature scaler, so deployment-time selection needs no
// retraining. It replaces the paper's generated C++ header + libSVM model
// file pair.
type Model struct {
	Classifier Classifier
	Scaler     *Scaler
	// Meta optionally stamps the model's provenance (version, creation time,
	// training-set size); nil for artifacts written before stamping existed.
	Meta *ModelMeta
	// Compiled is the optional distilled fast-dispatch artifact (see Distill).
	// When present, Predict routes confident calls through it and falls back
	// to the exact classifier near decision boundaries. Like the classifier,
	// it is written only at distill/deserialization time and read-only
	// afterwards, so a fitted Model stays safe for concurrent prediction.
	Compiled *Compiled
}

// Version returns the stamped model generation, or 0 when unstamped.
func (m *Model) Version() int {
	if m == nil || m.Meta == nil {
		return 0
	}
	return m.Meta.Version
}

// CheckShape reports whether m fits a function with the given feature and
// variant counts: a fitted scaler and a compiled program must each expect
// exactly features inputs, the program as many as the scaler, and every
// class label, the classifier's and the compiled program's alike, must name
// one of variants variants. A count of zero skips its check.
func (m *Model) CheckShape(features, variants int) error {
	scaled := m.Scaler != nil && m.Scaler.Fitted()
	if features > 0 && scaled && len(m.Scaler.Min) != features {
		return fmt.Errorf("scaler expects %d features, function has %d", len(m.Scaler.Min), features)
	}
	if c := m.Compiled; c != nil {
		if features > 0 && c.Dim != features {
			return fmt.Errorf("compiled program expects %d features, function has %d", c.Dim, features)
		}
		if scaled && c.Dim != len(m.Scaler.Min) {
			return fmt.Errorf("compiled program expects %d features, scaler %d", c.Dim, len(m.Scaler.Min))
		}
	}
	if variants <= 0 {
		return nil
	}
	var labels []int
	if m.Classifier != nil {
		labels = append(labels, m.Classifier.Classes()...)
	}
	if m.Compiled != nil {
		labels = append(labels, m.Compiled.Classes...)
	}
	for _, c := range labels {
		if c < 0 || c >= variants {
			return fmt.Errorf("class label %d outside the function's %d variants", c, variants)
		}
	}
	return nil
}

// Predict scales x (if a scaler is present) and classifies it, routing
// through the compiled artifact when one is installed and confident; see
// PredictTier for the tier-reporting variant.
func (m *Model) Predict(x []float64) int {
	pred, _ := m.PredictTier(x)
	return pred
}

// Scores scales x and returns the per-class confidences.
func (m *Model) Scores(x []float64) []float64 {
	if m.Scaler != nil && m.Scaler.Fitted() {
		x = m.Scaler.Transform(x)
	}
	return m.Classifier.Scores(x)
}

// svmPairJSON is one one-vs-one machine. SV indexes the SVM's shared
// support-vector table, aligned with Coefs. SVs is the per-pair form that
// artifacts written before the table existed carry; it is still read, and
// written only for an SVM that has no shared table.
type svmPairJSON struct {
	A     int         `json:"a"`
	B     int         `json:"b"`
	SV    []int       `json:"sv,omitempty"`
	SVs   [][]float64 `json:"svs,omitempty"`
	Coefs []float64   `json:"coefs"`
	Rho   float64     `json:"rho"`
	Iters int         `json:"iters"`
}

// svmJSON is an SVM body. SVs is the shared support-vector table (the
// model's svRows, in table order), so a vector shared by several pairs is
// written once.
type svmJSON struct {
	C       float64       `json:"c"`
	Kernel  kernelSpec    `json:"kernel"`
	Classes []int         `json:"classes"`
	SVs     [][]float64   `json:"svs,omitempty"`
	Pairs   []svmPairJSON `json:"pairs"`
}

type knnJSON struct {
	K       int     `json:"k"`
	Train   Dataset `json:"train"`
	Classes []int   `json:"classes"`
}

type treeJSON struct {
	MaxDepth int       `json:"max_depth"`
	MinLeaf  int       `json:"min_leaf"`
	Root     *treeNode `json:"root"`
	Classes  []int     `json:"classes"`
}

type logisticJSON struct {
	LR      float64     `json:"lr"`
	L2      float64     `json:"l2"`
	Iters   int         `json:"iters"`
	W       [][]float64 `json:"w"`
	Classes []int       `json:"classes"`
}

type modelJSON struct {
	Kind     string          `json:"kind"`
	Meta     *ModelMeta      `json:"meta,omitempty"`
	Scaler   *Scaler         `json:"scaler,omitempty"`
	SVM      *svmJSON        `json:"svm,omitempty"`
	KNN      *knnJSON        `json:"knn,omitempty"`
	Tree     *treeJSON       `json:"tree,omitempty"`
	Logistic *logisticJSON   `json:"logistic,omitempty"`
	Compiled *Compiled       `json:"compiled,omitempty"`
	Extra    json.RawMessage `json:"extra,omitempty"`
}

// envelopeClassifier fills env's Kind and classifier body from c.
func envelopeClassifier(c Classifier, env *modelJSON) error {
	switch c := c.(type) {
	case *SVM:
		env.Kind = "svm"
		env.SVM = svmBody(c)
	case *KNN:
		env.Kind = "knn"
		kj := &knnJSON{K: c.K, Classes: c.classes}
		if c.train != nil {
			kj.Train = *c.train
		}
		env.KNN = kj
	case *DecisionTree:
		env.Kind = "tree"
		env.Tree = &treeJSON{MaxDepth: c.MaxDepth, MinLeaf: c.MinLeafSamples, Root: c.root, Classes: c.classes}
	case *Logistic:
		env.Kind = "logistic"
		env.Logistic = &logisticJSON{LR: c.LR, L2: c.L2, Iters: c.Iters, W: c.W, Classes: c.classes}
	default:
		return fmt.Errorf("ml: cannot serialize classifier kind %q", c.Name())
	}
	return nil
}

// svmBody builds c's JSON body: the shared support-vector table with per-pair
// indices into it, or, for an SVM without a table, each pair's own support
// vectors.
func svmBody(c *SVM) *svmJSON {
	sj := &svmJSON{C: c.C, Kernel: specOf(c.kernel), Classes: c.classes, SVs: c.svRows}
	for _, p := range c.pairs {
		pj := svmPairJSON{A: p.a, B: p.b, Coefs: p.sol.svCoef, Rho: p.sol.rho, Iters: p.sol.iters}
		if c.svRows != nil {
			pj.SV = p.svID
		} else {
			pj.SVs = p.sol.svX
		}
		sj.Pairs = append(sj.Pairs, pj)
	}
	return sj
}

// svmFromBody rebuilds an SVM from its JSON body. A body with a shared table
// installs it as svRows and each pair's indices as its svID; a body in the
// per-pair form rebuilds the table by content (buildSVCache). A bad index, a
// pair mixing both forms or a support-vector count that differs from the
// coefficient count is an error, so a corrupt artifact never yields a model
// that panics or silently drops support vectors.
func svmFromBody(sj *svmJSON) (*SVM, error) {
	k, err := sj.Kernel.kernel()
	if err != nil {
		return nil, err
	}
	svm := NewSVM(k, sj.C)
	svm.classes = sj.Classes
	for i, p := range sj.Pairs {
		sol := &smoResult{svX: p.SVs, svCoef: p.Coefs, rho: p.Rho, iters: p.Iters}
		switch {
		case sj.SVs != nil && p.SVs != nil:
			return nil, fmt.Errorf("ml: svm pair %d carries its own svs beside the shared table", i)
		case sj.SVs == nil && p.SV != nil:
			return nil, fmt.Errorf("ml: svm pair %d indexes a missing support-vector table", i)
		case sj.SVs != nil:
			sol.svX = make([][]float64, len(p.SV))
			for s, id := range p.SV {
				if id < 0 || id >= len(sj.SVs) {
					return nil, fmt.Errorf("ml: svm pair %d: support vector %d of a %d-row table", i, id, len(sj.SVs))
				}
				sol.svX[s] = sj.SVs[id]
			}
		}
		if len(sol.svX) != len(p.Coefs) {
			return nil, fmt.Errorf("ml: svm pair %d has %d support vectors but %d coefficients", i, len(sol.svX), len(p.Coefs))
		}
		svm.pairs = append(svm.pairs, svmPair{a: p.A, b: p.B, sol: sol, svID: p.SV})
	}
	if sj.SVs == nil {
		svm.buildSVCache()
		return svm, nil
	}
	svm.svRows = sj.SVs
	svm.buildClassIndex()
	return svm, nil
}

// MarshalModel serializes a fitted model (SVM, KNN, DecisionTree or Logistic)
// with its scaler to compact JSON.
func MarshalModel(m *Model) ([]byte, error) {
	if m == nil || m.Classifier == nil {
		return nil, fmt.Errorf("ml: nil model")
	}
	env := modelJSON{Scaler: m.Scaler, Meta: m.Meta, Compiled: m.Compiled}
	if err := envelopeClassifier(m.Classifier, &env); err != nil {
		return nil, err
	}
	return json.Marshal(env)
}

// UnmarshalModel reconstructs a model serialized by MarshalModel.
func UnmarshalModel(data []byte) (*Model, error) {
	var env modelJSON
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: bad model JSON: %w", err)
	}
	m := &Model{Scaler: env.Scaler, Meta: env.Meta}
	if env.Compiled != nil {
		// A compiled artifact is a little interpreted program; validate the
		// structure (forward edges, index bounds) so a corrupted or hostile
		// file cannot make the dispatch hot loop read out of bounds or spin.
		if err := env.Compiled.Validate(); err != nil {
			return nil, fmt.Errorf("ml: bad compiled artifact: %w", err)
		}
		m.Compiled = env.Compiled
	}
	clf, err := classifierFromEnvelope(&env)
	if err != nil {
		return nil, err
	}
	m.Classifier = clf
	return m, nil
}

// classifierFromEnvelope reconstructs the classifier named by env.Kind.
func classifierFromEnvelope(env *modelJSON) (Classifier, error) {
	switch env.Kind {
	case "svm":
		if env.SVM == nil {
			return nil, fmt.Errorf("ml: svm model missing body")
		}
		return svmFromBody(env.SVM)
	case "knn":
		if env.KNN == nil {
			return nil, fmt.Errorf("ml: knn model missing body")
		}
		knn := NewKNN(env.KNN.K)
		knn.classes = env.KNN.Classes
		train := env.KNN.Train
		knn.train = &train
		return knn, nil
	case "tree":
		if env.Tree == nil {
			return nil, fmt.Errorf("ml: tree model missing body")
		}
		t := NewDecisionTree(env.Tree.MaxDepth, env.Tree.MinLeaf)
		t.root = env.Tree.Root
		t.classes = env.Tree.Classes
		return t, nil
	case "logistic":
		if env.Logistic == nil {
			return nil, fmt.Errorf("ml: logistic model missing body")
		}
		l := NewLogistic(env.Logistic.LR, env.Logistic.L2, env.Logistic.Iters)
		l.W = env.Logistic.W
		l.classes = env.Logistic.Classes
		return l, nil
	case "ensemble":
		return nil, ErrEnsembleRemoved
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
}
