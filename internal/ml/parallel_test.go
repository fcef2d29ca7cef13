package ml

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestGridSearchParallelDeterministic asserts the headline guarantee of the
// parallel grid search: every Parallelism setting returns the same winning
// hyper-parameters, the same CV accuracy, and a final model with identical
// predictions — bit for bit, not merely statistically close.
func TestGridSearchParallelDeterministic(t *testing.T) {
	ds := blobs(90, 3, 4, 0.8, 19)
	probe := blobs(60, 3, 4, 1.2, 20) // includes ambiguous points near boundaries
	cfg := GridConfig{
		CValues:     []float64{0.5, 4, 32},
		GammaValues: []float64{0.03125, 0.25, 2},
		Folds:       4,
		Seed:        3,
	}

	run := func(parallelism int) (GridSearchResult, []int, []float64) {
		c := cfg
		c.Parallelism = parallelism
		m, res, err := GridSearchSVM(ds, c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		preds := make([]int, len(probe.X))
		var decs []float64
		for i, x := range probe.X {
			preds[i] = m.Predict(x)
			decs = append(decs, m.DecisionValues(x)...)
		}
		return res, preds, decs
	}

	serialRes, serialPreds, serialDecs := run(1)
	if serialRes.Evaluated != len(cfg.CValues)*len(cfg.GammaValues) {
		t.Fatalf("evaluated %d points, want %d", serialRes.Evaluated, len(cfg.CValues)*len(cfg.GammaValues))
	}
	for _, p := range []int{0, 2, 8} {
		res, preds, decs := run(p)
		if res != serialRes {
			t.Errorf("parallelism %d: result %+v differs from serial %+v", p, res, serialRes)
		}
		if !reflect.DeepEqual(preds, serialPreds) {
			t.Errorf("parallelism %d: predictions differ from serial", p)
		}
		if !reflect.DeepEqual(decs, serialDecs) {
			t.Errorf("parallelism %d: decision values differ from serial (not bit-identical)", p)
		}
	}
}

// TestGridSearchMatchesCacheFreeSearch cross-checks the cached CV numbers
// against the plain CrossValidate path the serial search used before the
// kernel cache existed: for every grid point the cached estimate must equal
// the direct estimate exactly.
func TestGridSearchMatchesCacheFreeSearch(t *testing.T) {
	ds := blobs(60, 3, 3, 0.7, 23)
	cValues := []float64{1, 10}
	gammas := []float64{0.1, 1}
	const folds, seed = 3, 0

	// Reference: the cache-free search (direct kernel evaluation everywhere).
	bestRef := GridSearchResult{Accuracy: -1}
	for _, c := range cValues {
		for _, g := range gammas {
			acc, err := CrossValidate(func() Classifier { return NewSVM(RBFKernel{Gamma: g}, c) }, ds, folds, seed)
			if err != nil {
				t.Fatal(err)
			}
			bestRef.Evaluated++
			if acc > bestRef.Accuracy {
				bestRef.Accuracy, bestRef.C, bestRef.Gamma = acc, c, g
			}

			// Point-wise: cached CV == direct CV, bit for bit.
			trains, tests, err := KFold(ds.Len(), folds, seed)
			if err != nil {
				t.Fatal(err)
			}
			km := kernelMatrix(ds.X, RBFKernel{Gamma: g})
			cached, err := crossValidateSVMGram(ds, km, c, defaultSVMEps, trains, tests)
			if err != nil {
				t.Fatal(err)
			}
			if cached != acc {
				t.Errorf("C=%g gamma=%g: cached CV %v != direct CV %v", c, g, cached, acc)
			}
		}
	}

	_, res, err := GridSearchSVM(ds, GridConfig{CValues: cValues, GammaValues: gammas, Folds: folds, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res != bestRef {
		t.Errorf("grid search result %+v != cache-free reference %+v", res, bestRef)
	}
}

// TestKernelMatrixExact verifies the cache stores the exact floats k.Eval
// returns, and that gatherKM extracts the right principal submatrix.
func TestKernelMatrixExact(t *testing.T) {
	ds := blobs(25, 2, 3, 0.5, 29)
	k := RBFKernel{Gamma: 0.4}
	km := kernelMatrix(ds.X, k)
	for i := range ds.X {
		for j := range ds.X {
			if km[i][j] != k.Eval(ds.X[i], ds.X[j]) {
				t.Fatalf("km[%d][%d] = %v, want exact k.Eval = %v", i, j, km[i][j], k.Eval(ds.X[i], ds.X[j]))
			}
		}
	}
	idx := []int{3, 7, 11, 20}
	sub := gatherKM(km, idx)
	for i, gi := range idx {
		for j, gj := range idx {
			if sub[i][j] != km[gi][gj] {
				t.Fatalf("gatherKM[%d][%d] != km[%d][%d]", i, j, gi, gj)
			}
		}
	}
}

// TestSolveBinaryKMMatchesDirect trains the same binary subproblem once with
// direct kernel evaluation and once through an index-subset gather of a
// full-dataset Gram matrix; the SMO trajectories must be identical.
func TestSolveBinaryKMMatchesDirect(t *testing.T) {
	ds := blobs(40, 2, 2, 1.0, 37) // overlap so the solver works for its answer
	k := RBFKernel{Gamma: 0.6}
	full := kernelMatrix(ds.X, k)

	// Take an arbitrary index subset (as a CV fold would).
	var idx []int
	var x [][]float64
	var y []float64
	for i := range ds.X {
		if i%3 == 0 {
			continue
		}
		idx = append(idx, i)
		x = append(x, ds.X[i])
		if ds.Y[i] == 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	direct, err := solveBinary(x, y, k, 2, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := solveBinaryKM(x, y, gatherKM(full, idx), 2, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if direct.iters != cached.iters || direct.rho != cached.rho {
		t.Errorf("iters/rho differ: direct (%d, %v) vs cached (%d, %v)",
			direct.iters, direct.rho, cached.iters, cached.rho)
	}
	if !reflect.DeepEqual(direct.svIdx, cached.svIdx) {
		t.Errorf("svIdx differ: %v vs %v", direct.svIdx, cached.svIdx)
	}
	if !reflect.DeepEqual(direct.svCoef, cached.svCoef) {
		t.Errorf("svCoef differ: %v vs %v", direct.svCoef, cached.svCoef)
	}
}

// TestGramSVMMatchesSVM trains the cache-backed gramSVM and the plain SVM on
// the same fold and checks predictions and scores agree on every held-out
// point, exercising the pair order / summation order / tie-break replication.
func TestGramSVMMatchesSVM(t *testing.T) {
	ds := blobs(60, 4, 3, 0.9, 41)
	k := RBFKernel{Gamma: 0.3}
	km := kernelMatrix(ds.X, k)
	trains, tests, err := KFold(ds.Len(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for f := range trains {
		g, err := fitGramSVM(ds, km, trains[f], 4, defaultSVMEps, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewSVM(k, 4)
		if err := ref.Fit(ds.Subset(trains[f])); err != nil {
			t.Fatal(err)
		}
		for _, ti := range tests[f] {
			wantScores := ref.Scores(ds.X[ti])
			gotScores := g.scores(km, ti)
			if !reflect.DeepEqual(gotScores, wantScores) {
				t.Fatalf("fold %d point %d: scores %v != %v", f, ti, gotScores, wantScores)
			}
			if got, want := g.predict(km, ti), ref.Predict(ds.X[ti]); got != want {
				t.Fatalf("fold %d point %d: predict %d != %d", f, ti, got, want)
			}
		}
		if acc := g.accuracy(ds, km, tests[f]); acc != Accuracy(ref, ds.Subset(tests[f])) {
			t.Fatalf("fold %d: accuracy mismatch", f)
		}
	}
}

// TestSVCacheMatchesDirectDecision verifies the shared support-vector kernel
// cache: Scores/DecisionValues computed through the per-distinct-SV cache
// must equal the uncached pairwise decision sums, and the table holds each
// support vector once, also when training rows repeat (four copies of
// every row here, as an observation reservoir holds repeated inputs; at
// C = 1 the copies of a bounded point are support vectors of several
// pairs).
func TestSVCacheMatchesDirectDecision(t *testing.T) {
	checkSVCache(t, blobs(80, 4, 3, 0.8, 43), 8)
	overlapping := blobs(40, 4, 3, 2.5, 45)
	repeated := &Dataset{}
	for copies := 0; copies < 4; copies++ {
		for i, x := range overlapping.X {
			repeated.Append(append([]float64(nil), x...), overlapping.Y[i])
		}
	}
	checkSVCache(t, repeated, 1)
}

func checkSVCache(t *testing.T, ds *Dataset, c float64) {
	t.Helper()
	m := NewSVM(RBFKernel{Gamma: 0.3}, c)
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if m.NumDistinctSupportVectors() > m.NumSupportVectors() {
		t.Fatalf("distinct SVs %d > total SV references %d",
			m.NumDistinctSupportVectors(), m.NumSupportVectors())
	}
	rows := map[string]bool{}
	for _, sv := range m.svRows {
		key := fmt.Sprint(sv)
		if rows[key] {
			t.Fatalf("support vector %v has two table rows", sv)
		}
		rows[key] = true
	}
	probe := blobs(40, 4, 3, 1.2, 44)
	for _, x := range probe.X {
		got := m.DecisionValues(x)
		var want []float64
		for _, p := range m.pairs {
			want = append(want, p.sol.decision(m.Kernel(), x))
		}
		if len(got) != len(want) {
			t.Fatalf("decision count %d != %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("cached decision[%d] = %v, direct = %v", i, got[i], want[i])
			}
		}
	}
}
