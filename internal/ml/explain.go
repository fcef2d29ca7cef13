package ml

import "math"

// Explanation is the full story of one model decision: everything the
// selection engine computed between "here is a feature vector" and "dispatch
// variant k". It is the payload behind `nitro-model -explain` and the
// model-side half of a core DecisionTrace; both surfaces promise that the
// explanation reproduces the exact choice Call would make, so every field is
// derived from the same code paths dispatch uses (Scores, RankedClasses,
// Predict) rather than a parallel re-implementation.
type Explanation struct {
	// Raw is the feature vector as passed in (copied; safe to retain).
	Raw []float64 `json:"raw"`
	// Scaled is the vector after the model's scaler mapped it into the
	// training range ([-1,1] per the paper); nil when no fitted scaler is
	// installed.
	Scaled []float64 `json:"scaled,omitempty"`
	// Classes lists the known class labels; Scores is aligned with it.
	Classes []int     `json:"classes"`
	Scores  []float64 `json:"scores"`
	// PairDecisions holds the raw one-vs-one decision values (pair order,
	// aligned with PairClasses) when the classifier is an SVM; nil otherwise.
	PairDecisions []float64 `json:"pair_decisions,omitempty"`
	// PairClasses lists the class-label pair behind each decision value;
	// a positive decision votes for the first label of the pair.
	PairClasses [][2]int `json:"pair_classes,omitempty"`
	// Ranked is the exact model's full preference order, best first — the
	// failure fallback chain fault-tolerant dispatch walks. Ranked[0] ==
	// Predicted whenever the exact tier decided; with a compiled artifact
	// installed the two may (rarely, off-corpus) differ, since Predicted then
	// follows the distilled program while Ranked stays the exact ranking the
	// fallback walk uses.
	Ranked []int `json:"ranked"`
	// Predicted is the model's class prediction (identical to Predict(x)).
	Predicted int `json:"predicted"`
	// Version is the stamped model generation (0 when unstamped).
	Version int `json:"version"`
	// Tier names the dispatch tier that produced Predicted ("compiled" when
	// the distilled artifact answered with margin clearance, else "exact").
	Tier string `json:"tier,omitempty"`
	// CompiledMargin is the compiled walk's minimum boundary distance in
	// scaled space, and CompiledThreshold the calibrated fallback cutoff it
	// is compared against; both zero when no artifact is installed.
	CompiledMargin    float64 `json:"compiled_margin,omitempty"`
	CompiledThreshold float64 `json:"compiled_threshold,omitempty"`
}

// PairClasses returns the class-label pair of every trained one-vs-one
// machine, in the same order DecisionValues reports decision values. The
// positive side of pair i's decision votes for PairClasses()[i][0].
func (m *SVM) PairClasses() [][2]int {
	out := make([][2]int, len(m.pairs))
	for i := range m.pairs {
		out[i] = [2]int{m.pairs[i].a, m.pairs[i].b}
	}
	return out
}

// Explain runs one prediction and captures every intermediate the selection
// engine would see: the scaled vector, per-class confidences, the ranked
// preference order and (for SVMs) the raw pairwise decision values. The
// returned explanation owns its slices.
//
// Contract: Explain(x).Predicted == Predict(x) and Explain(x).Ranked is
// exactly RankedClasses(x) — the explanation is computed by the same
// functions, not a reimplementation, so it can never drift from dispatch.
func (m *Model) Explain(x []float64) Explanation {
	ex := Explanation{
		Raw:     append([]float64(nil), x...),
		Version: m.Version(),
	}
	scaled := x
	if m.Scaler != nil && m.Scaler.Fitted() {
		scaled = m.Scaler.Transform(x)
		ex.Scaled = append([]float64(nil), scaled...)
	}
	ex.Classes = append([]int(nil), m.Classifier.Classes()...)
	ex.Scores = m.Classifier.Scores(scaled)
	if svm, ok := m.Classifier.(*SVM); ok {
		ex.PairDecisions = svm.DecisionValues(scaled)
		ex.PairClasses = svm.PairClasses()
	}
	ex.Ranked = m.RankedClasses(x)
	pred, tier := m.PredictTier(x)
	ex.Predicted = pred
	ex.Tier = tier.String()
	if c := m.Compiled; c != nil && len(scaled) == c.Dim {
		_, margin := c.walk(scaled)
		if !math.IsInf(margin, 0) {
			ex.CompiledMargin = margin
		}
		ex.CompiledThreshold = c.Margin
	}
	return ex
}
