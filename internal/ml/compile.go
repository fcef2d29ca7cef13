package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Tier identifies which dispatch tier produced a prediction. The deployment
// runtime routes every selection through a tier ladder — memo cache, compiled
// artifact, exact classifier — and records which rung decided, so traces and
// stats can attribute latency and verify the fast paths stay honest.
type Tier int32

const (
	// TierNone means no prediction was made (no model installed).
	TierNone Tier = iota
	// TierExact means the full classifier (scaler + SVM/kNN/tree/logistic)
	// was evaluated.
	TierExact
	// TierCompiled means the distilled compiled artifact decided, with margin
	// clearance from every decision boundary it crossed.
	TierCompiled
	// TierMemo means the runtime's memoization cache returned a previously
	// computed prediction for an identical feature vector.
	TierMemo
)

// String implements fmt.Stringer. TierNone renders empty so trace lines and
// JSON can omit the field when no model participated.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierCompiled:
		return "compiled"
	case TierMemo:
		return "memo"
	default:
		return ""
	}
}

// CompiledNode is one instruction of the flattened decision program. Internal
// nodes compare scaled[Feature] <= Threshold and jump to Left or Right; leaves
// (Left < 0) return Classes[Class]. Child indices always point forward
// (strictly greater than the node's own index), so a validated program cannot
// loop — every walk terminates in at most len(Nodes) steps.
type CompiledNode struct {
	Feature   int32   `json:"f"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
	Class     int32   `json:"c"`
	Threshold float64 `json:"t"`
}

// Compiled is the distilled fast-dispatch artifact: a flattened
// threshold-comparison program over the scaled feature space, distilled from
// the exact model's own labels (see Distill), plus calibration metadata. A
// walk that passes within Margin of any split boundary it evaluates reports
// ok=false and the caller must consult the exact model. The calibrated
// Margin routes every distillation-corpus disagreement to the exact path, so
// served agreement on that corpus is 100%. Off the corpus nothing routes a
// disagreement: a held-out input whose walk clears the margin gets the
// program's pick, which can differ from the exact model's.
type Compiled struct {
	// Nodes is the decision program; Nodes[0] is the root.
	Nodes []CompiledNode `json:"nodes"`
	// Classes are the labels leaf Class indices resolve to.
	Classes []int `json:"classes"`
	// Dim is the scaled feature dimensionality the program expects.
	Dim int `json:"dim"`
	// Margin is the calibrated boundary-clearance threshold (scaled space).
	Margin float64 `json:"margin"`
	// Agreement is the raw tree-vs-exact agreement over the distillation
	// corpus, before margin routing (the >= MinAgreement install gate).
	Agreement float64 `json:"agreement"`
	// FallbackRate is the corpus fraction whose walk margin fell below
	// Margin and would be routed to the exact model.
	FallbackRate float64 `json:"fallback_rate"`
	// CorpusSize is the number of corpus vectors the artifact was distilled
	// and calibrated on.
	CorpusSize int `json:"corpus_size"`
}

// UnmarshalJSON decodes c as encoding/json would, except that the margin
// literal 5e-324 — what Distill writes when no corpus point disagrees —
// decodes straight to math.SmallestNonzeroFloat64, the value
// strconv.ParseFloat gives it on its slow subnormal path.
func (c *Compiled) UnmarshalJSON(data []byte) error {
	type plain Compiled
	return json.Unmarshal(data, &struct {
		*plain
		Margin *compiledMargin `json:"margin"`
	}{(*plain)(c), (*compiledMargin)(&c.Margin)})
}

// compiledMargin is Compiled.Margin's decoder (see Compiled.UnmarshalJSON).
type compiledMargin float64

func (m *compiledMargin) UnmarshalJSON(data []byte) error {
	if string(data) == "5e-324" {
		*m = math.SmallestNonzeroFloat64
		return nil
	}
	return json.Unmarshal(data, (*float64)(m))
}

// DistillOptions configures Distill. The zero value is usable: depth-8 CART,
// 99% agreement gate, 50% fallback-rate cap.
type DistillOptions struct {
	// MaxDepth bounds the CART tree depth (default 8).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MinAgreement is the install gate: raw tree-vs-exact agreement on the
	// corpus must be at least this (default 0.99).
	MinAgreement float64
	// MaxFallbackRate rejects artifacts whose calibrated margin routes more
	// than this corpus fraction to the exact model (default 0.5) — a fast
	// path nobody hits is not a fast path.
	MaxFallbackRate float64
}

// normalized fills defaults.
func (o DistillOptions) normalized() DistillOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 1
	}
	if o.MinAgreement <= 0 {
		o.MinAgreement = 0.99
	}
	if o.MaxFallbackRate <= 0 {
		o.MaxFallbackRate = 0.5
	}
	return o
}

// ErrDistillRejected reports that distillation produced an artifact that
// failed an install gate (agreement or fallback rate); the model keeps its
// exact-only dispatch.
var ErrDistillRejected = errors.New("ml: distilled artifact rejected")

// Predict walks the compiled program over a scaled feature vector and returns
// the predicted class label plus ok=true when the walk kept at least Margin
// clearance from every boundary it evaluated. ok=false means the caller must
// fall back to the exact model. x must have length Dim.
func (c *Compiled) Predict(x []float64) (int, bool) {
	class, margin := c.walk(x)
	return class, margin >= c.Margin
}

// walk runs the decision program over a scaled feature vector and returns
// the leaf's class label and the minimum boundary distance along the path
// (+Inf for a single-leaf program).
func (c *Compiled) walk(x []float64) (class int, margin float64) {
	return c.walkWith(nil, x, nil)
}

// walkWith is the one implementation of the program's walk. Each internal
// node on the path reads x[j] for the feature j it tests — calling fill(j)
// first when fill is non-nil, so the caller can evaluate x[j] on demand —
// scales it with sc.scaleOne when sc is non-nil (bit-identical to
// transforming the whole vector first) and compares it with the node's
// threshold. Only the entries the path tests are read. It returns the
// leaf's class label and the minimum boundary distance along the path
// (+Inf for a single-leaf program).
func (c *Compiled) walkWith(sc *Scaler, x []float64, fill func(int)) (class int, margin float64) {
	margin = math.Inf(1)
	i := 0
	for {
		n := &c.Nodes[i]
		if n.Left < 0 {
			return c.Classes[n.Class], margin
		}
		j := int(n.Feature)
		if fill != nil {
			fill(j)
		}
		v := x[j]
		if sc != nil {
			v = sc.scaleOne(j, v)
		}
		d := v - n.Threshold
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

// Validate checks structural integrity: every child edge points forward and
// in range (so walks terminate), every feature and class index resolves, and
// calibration metadata is sane. Deserialized artifacts must pass Validate
// before use — UnmarshalModel enforces this.
func (c *Compiled) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("ml: compiled artifact has no nodes")
	}
	if c.Dim < 1 {
		return fmt.Errorf("ml: compiled artifact dim %d < 1", c.Dim)
	}
	if len(c.Classes) == 0 {
		return errors.New("ml: compiled artifact has no classes")
	}
	if math.IsNaN(c.Margin) || math.IsInf(c.Margin, 0) || c.Margin < 0 {
		return fmt.Errorf("ml: compiled artifact margin %v invalid", c.Margin)
	}
	if math.IsNaN(c.Agreement) || c.Agreement < 0 || c.Agreement > 1 {
		return fmt.Errorf("ml: compiled artifact agreement %v invalid", c.Agreement)
	}
	if math.IsNaN(c.FallbackRate) || c.FallbackRate < 0 || c.FallbackRate > 1 {
		return fmt.Errorf("ml: compiled artifact fallback rate %v invalid", c.FallbackRate)
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Left < 0 { // leaf
			if n.Class < 0 || int(n.Class) >= len(c.Classes) {
				return fmt.Errorf("ml: compiled node %d: class index %d out of range", i, n.Class)
			}
			continue
		}
		if n.Feature < 0 || int(n.Feature) >= c.Dim {
			return fmt.Errorf("ml: compiled node %d: feature %d out of range", i, n.Feature)
		}
		if int(n.Left) <= i || int(n.Left) >= len(c.Nodes) {
			return fmt.Errorf("ml: compiled node %d: left child %d is not a forward edge", i, n.Left)
		}
		if n.Right <= int32(i) || int(n.Right) >= len(c.Nodes) {
			return fmt.Errorf("ml: compiled node %d: right child %d is not a forward edge", i, n.Right)
		}
		if math.IsNaN(n.Threshold) {
			return fmt.Errorf("ml: compiled node %d: NaN threshold", i)
		}
	}
	return nil
}

// Depth returns the longest root-to-leaf path length (edges) of the program.
func (c *Compiled) Depth() int {
	if len(c.Nodes) == 0 {
		return 0
	}
	depth := make([]int, len(c.Nodes))
	best := 0
	// Children are forward edges, so one forward sweep settles all depths.
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Left < 0 {
			continue
		}
		for _, ch := range [2]int32{n.Left, n.Right} {
			if d := depth[i] + 1; d > depth[ch] {
				depth[ch] = d
				if d > best {
					best = d
				}
			}
		}
	}
	return best
}

// Distill fits a shallow CART tree on model's own labels over the (raw)
// corpus, flattens it into a Compiled program over the scaled feature space,
// calibrates the fallback margin so every corpus point the tree mislabels is
// routed back to the exact model, and gates installation on raw agreement and
// fallback rate. It returns the artifact without mutating model; callers
// install it by setting model.Compiled.
//
// The corpus should be the training set (or observation window) the model was
// fitted on — the same distribution the artifact will serve.
func Distill(model *Model, corpus [][]float64, opts DistillOptions) (*Compiled, error) {
	if model == nil || model.Classifier == nil {
		return nil, errors.New("ml: distill: nil model")
	}
	if len(corpus) == 0 {
		return nil, errors.New("ml: distill: empty corpus")
	}
	opts = opts.normalized()
	dim := len(corpus[0])
	if dim == 0 {
		return nil, errors.New("ml: distill: zero-dimensional corpus")
	}

	// Label the corpus with the exact model and scale it into the space the
	// artifact will run in.
	scaled := make([][]float64, len(corpus))
	labels := make([]int, len(corpus))
	for i, x := range corpus {
		if len(x) != dim {
			return nil, fmt.Errorf("ml: distill: corpus row %d has %d features, want %d", i, len(x), dim)
		}
		labels[i] = model.PredictExact(x)
		if model.Scaler != nil && model.Scaler.Fitted() {
			scaled[i] = model.Scaler.Transform(x)
		} else {
			scaled[i] = append([]float64(nil), x...)
		}
	}

	tree := NewDecisionTree(opts.MaxDepth, opts.MinLeaf)
	if err := tree.Fit(&Dataset{X: scaled, Y: labels}); err != nil {
		return nil, fmt.Errorf("ml: distill: %w", err)
	}

	c := &Compiled{
		Nodes:      flattenTree(tree),
		Classes:    append([]int(nil), tree.Classes()...),
		Dim:        dim,
		CorpusSize: len(corpus),
	}

	// Calibrate: the margin must exceed the walk margin of every corpus
	// disagreement, so each one reports ok=false and takes the exact path.
	agree := 0
	maxBadMargin := 0.0
	margins := make([]float64, len(scaled))
	for i, x := range scaled {
		class, margin := c.walk(x)
		margins[i] = margin
		if class == labels[i] {
			agree++
		} else if margin > maxBadMargin {
			maxBadMargin = margin
		}
	}
	c.Agreement = float64(agree) / float64(len(scaled))
	if c.Agreement < opts.MinAgreement {
		return nil, fmt.Errorf("%w: agreement %.4f < %.4f on %d-point corpus",
			ErrDistillRejected, c.Agreement, opts.MinAgreement, len(scaled))
	}
	c.Margin = math.Nextafter(maxBadMargin, math.Inf(1))
	if math.IsInf(c.Margin, 1) {
		// A disagreement sits on an infinite-margin path (degenerate program,
		// e.g. a single leaf): no finite margin can route it to the exact
		// model, so the artifact cannot be made safe.
		return nil, fmt.Errorf("%w: no finite margin routes corpus disagreements to the exact path",
			ErrDistillRejected)
	}
	fallbacks := 0
	for _, m := range margins {
		if m < c.Margin {
			fallbacks++
		}
	}
	c.FallbackRate = float64(fallbacks) / float64(len(scaled))
	if c.FallbackRate > opts.MaxFallbackRate {
		return nil, fmt.Errorf("%w: calibrated margin %.4g routes %.1f%% of corpus to exact path (cap %.1f%%)",
			ErrDistillRejected, c.Margin, 100*c.FallbackRate, 100*opts.MaxFallbackRate)
	}
	return c, nil
}

// flattenTree lowers a fitted CART tree into the forward-edge node array.
// Leaf class indices follow DecisionTree.Predict's argmax (first maximum
// wins), so the flattened program is decision-identical to the tree.
func flattenTree(t *DecisionTree) []CompiledNode {
	var nodes []CompiledNode
	var emit func(n *treeNode) int32
	emit = func(n *treeNode) int32 {
		id := int32(len(nodes))
		nodes = append(nodes, CompiledNode{Left: -1, Right: -1, Class: -1})
		if n.Left == nil { // leaf: same first-maximum argmax as DecisionTree.Predict
			best, bestC := 0, math.Inf(-1)
			for i, cnt := range n.Counts {
				if cnt > bestC {
					best, bestC = i, cnt
				}
			}
			nodes[id].Class = int32(best)
			return id
		}
		nodes[id].Feature = int32(n.Feature)
		nodes[id].Threshold = n.Threshold
		nodes[id].Left = emit(n.Left)
		nodes[id].Right = emit(n.Right)
		return id
	}
	emit(t.root)
	return nodes
}
