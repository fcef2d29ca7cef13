// Package ml implements the machine-learning substrate of the Nitro
// reproduction: a from-scratch C-SVC support vector machine with an SMO
// solver and RBF kernel (standing in for libSVM), min-max feature scaling to
// [-1, 1], k-fold cross-validated grid search over the kernel parameters,
// the CART decision tree the distiller fits on the SVM's labels, and the
// Best-vs-Second-Best active-learning loop used by Nitro's incremental
// tuning mode. Only the standard library is used.
package ml

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Dataset is a labelled design matrix: X[i] is the feature vector of example
// i and Y[i] its integer class label (for Nitro, the index of the best code
// variant).
type Dataset struct {
	X [][]float64
	Y []int
}

// NewDataset constructs a dataset after validating that X and Y agree in
// length and that every row has the same dimension.
func NewDataset(x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if len(x) > 0 {
		d := len(x[0])
		for i, row := range x {
			if len(row) != d {
				return nil, fmt.Errorf("ml: row %d has dim %d, want %d", i, len(row), d)
			}
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Classes returns the sorted distinct labels present in the dataset.
func (d *Dataset) Classes() []int {
	seen := map[int]bool{}
	for _, y := range d.Y {
		seen[y] = true
	}
	out := make([]int, 0, len(seen))
	for y := range seen {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// Append adds one example and returns the (possibly reallocated) dataset.
func (d *Dataset) Append(x []float64, y int) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Subset returns a view-free copy of the rows at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{X: make([][]float64, 0, len(idx)), Y: make([]int, 0, len(idx))}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{X: make([][]float64, len(d.X)), Y: make([]int, len(d.Y))}
	copy(out.Y, d.Y)
	for i, row := range d.X {
		out.X[i] = append([]float64(nil), row...)
	}
	return out
}

// Shuffled returns a copy of the dataset with rows permuted by the seeded
// generator, so experiment pipelines stay deterministic.
func (d *Dataset) Shuffled(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(d.Len())
	return d.Subset(idx)
}

// KFold partitions {0..n-1} into k folds (round-robin over a seeded
// permutation) and returns, for each fold, the (train, test) index sets.
// k is clamped to [2, n].
func KFold(n, k int, seed int64) (trains, tests [][]int, err error) {
	if n < 2 {
		return nil, nil, errors.New("ml: need at least 2 examples for k-fold")
	}
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	for f := 0; f < k; f++ {
		var train []int
		for g := 0; g < k; g++ {
			if g != f {
				train = append(train, folds[g]...)
			}
		}
		trains = append(trains, train)
		tests = append(tests, folds[f])
	}
	return trains, tests, nil
}

// Accuracy returns the fraction of examples in ds that clf predicts
// correctly.
func Accuracy(clf Classifier, ds *Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	ok := 0
	for i, x := range ds.X {
		if clf.Predict(x) == ds.Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(ds.Len())
}
