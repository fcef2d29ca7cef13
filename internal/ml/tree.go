package ml

import (
	"errors"
	"math"
	"sort"
)

// DecisionTree is the distiller's CART: a classification tree (Gini
// impurity, binary axis-aligned splits) that Distill fits on the SVM's own
// labels and flattens into a Compiled program. It is not a model kind: no
// artifact carries a tree.
type DecisionTree struct {
	MaxDepth       int
	MinLeafSamples int

	root    *treeNode
	classes []int
}

type treeNode struct {
	Feature     int
	Threshold   float64
	Left, Right *treeNode
	// Counts holds per-class sample counts at leaves (aligned to classes).
	Counts []float64
}

// NewDecisionTree returns an untrained tree. Non-positive arguments select
// the defaults (depth 8, min leaf 1).
func NewDecisionTree(maxDepth, minLeaf int) *DecisionTree {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	if minLeaf <= 0 {
		minLeaf = 1
	}
	return &DecisionTree{MaxDepth: maxDepth, MinLeafSamples: minLeaf}
}

// Name implements Classifier.
func (m *DecisionTree) Name() string { return "tree" }

// Classes implements Classifier.
func (m *DecisionTree) Classes() []int { return m.classes }

// Fit implements Classifier.
func (m *DecisionTree) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return errors.New("ml: empty training set")
	}
	m.classes = ds.Classes()
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	m.root = m.build(ds, idx, 0)
	return nil
}

func (m *DecisionTree) counts(ds *Dataset, idx []int) []float64 {
	pos := make(map[int]int, len(m.classes))
	for i, c := range m.classes {
		pos[c] = i
	}
	out := make([]float64, len(m.classes))
	for _, i := range idx {
		out[pos[ds.Y[i]]]++
	}
	return out
}

func gini(counts []float64) float64 {
	var n float64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

func (m *DecisionTree) build(ds *Dataset, idx []int, depth int) *treeNode {
	counts := m.counts(ds, idx)
	if depth >= m.MaxDepth || len(idx) <= m.MinLeafSamples || gini(counts) == 0 {
		return &treeNode{Counts: counts}
	}
	bestGain, bestF, bestT := 0.0, -1, 0.0
	parentG := gini(counts)
	dim := ds.Dim()
	for f := 0; f < dim; f++ {
		sorted := append([]int(nil), idx...)
		sort.Slice(sorted, func(a, b int) bool { return ds.X[sorted[a]][f] < ds.X[sorted[b]][f] })
		leftC := make([]float64, len(m.classes))
		rightC := append([]float64(nil), counts...)
		pos := make(map[int]int, len(m.classes))
		for i, c := range m.classes {
			pos[c] = i
		}
		for i := 0; i < len(sorted)-1; i++ {
			ci := pos[ds.Y[sorted[i]]]
			leftC[ci]++
			rightC[ci]--
			v, vn := ds.X[sorted[i]][f], ds.X[sorted[i+1]][f]
			if v == vn {
				continue
			}
			nl, nr := float64(i+1), float64(len(sorted)-i-1)
			gain := parentG - (nl*gini(leftC)+nr*gini(rightC))/float64(len(sorted))
			if gain > bestGain+1e-12 {
				bestGain, bestF, bestT = gain, f, (v+vn)/2
			}
		}
	}
	if bestF < 0 {
		return &treeNode{Counts: counts}
	}
	var li, ri []int
	for _, i := range idx {
		if ds.X[i][bestF] <= bestT {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &treeNode{Counts: counts}
	}
	return &treeNode{
		Feature:   bestF,
		Threshold: bestT,
		Left:      m.build(ds, li, depth+1),
		Right:     m.build(ds, ri, depth+1),
	}
}

func (m *DecisionTree) leaf(x []float64) *treeNode {
	n := m.root
	for n != nil && n.Left != nil {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Predict implements Classifier.
func (m *DecisionTree) Predict(x []float64) int {
	if m.root == nil || len(m.classes) == 0 {
		return 0
	}
	counts := m.leaf(x).Counts
	best, bestC := 0, math.Inf(-1)
	for i, c := range counts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	return m.classes[best]
}

// Scores implements Classifier: leaf class frequencies.
func (m *DecisionTree) Scores(x []float64) []float64 {
	out := make([]float64, len(m.classes))
	if m.root == nil {
		return out
	}
	counts := m.leaf(x).Counts
	var n float64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / n
	}
	return out
}

// Depth returns the depth of the fitted tree (0 for a stump/leaf).
func (m *DecisionTree) Depth() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.Left == nil {
			return 0
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(m.root)
}
