package ml

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// blobs generates a deterministic gaussian-blob classification problem with
// k well-separated classes in dim dimensions.
func blobs(n, k, dim int, spread float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = float64(c*7) + 3*rng.Float64()
		}
	}
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		c := i % k
		x := make([]float64, dim)
		for j := range x {
			x[j] = centers[c][j] + rng.NormFloat64()*spread
		}
		ds.Append(x, c)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []int{1, 2}); err == nil {
		t.Error("length mismatch not caught")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Error("ragged rows not caught")
	}
	ds, err := NewDataset([][]float64{{1, 2}, {3, 4}}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dim() != 2 {
		t.Errorf("Len/Dim wrong: %d %d", ds.Len(), ds.Dim())
	}
	if got := ds.Classes(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Classes = %v", got)
	}
}

func TestDatasetCloneIndependence(t *testing.T) {
	ds := blobs(10, 2, 3, 0.1, 1)
	cl := ds.Clone()
	cl.X[0][0] = 999
	cl.Y[0] = 42
	if ds.X[0][0] == 999 || ds.Y[0] == 42 {
		t.Error("Clone shares storage with original")
	}
}

func TestShuffledDeterministic(t *testing.T) {
	ds := blobs(20, 2, 2, 0.1, 1)
	a, b := ds.Shuffled(7), ds.Shuffled(7)
	if !reflect.DeepEqual(a.Y, b.Y) {
		t.Error("Shuffled not deterministic for fixed seed")
	}
	c := ds.Shuffled(8)
	if reflect.DeepEqual(a.Y, c.Y) && reflect.DeepEqual(a.X, c.X) {
		t.Error("different seeds gave identical shuffles (possible but wildly unlikely)")
	}
}

func TestKFoldPartition(t *testing.T) {
	trains, tests, err := KFold(17, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trains) != 5 || len(tests) != 5 {
		t.Fatalf("want 5 folds, got %d/%d", len(trains), len(tests))
	}
	seen := map[int]int{}
	for f := range tests {
		for _, i := range tests[f] {
			seen[i]++
		}
		union := map[int]bool{}
		for _, i := range trains[f] {
			union[i] = true
		}
		for _, i := range tests[f] {
			if union[i] {
				t.Fatalf("fold %d: index %d in both train and test", f, i)
			}
			union[i] = true
		}
		if len(union) != 17 {
			t.Fatalf("fold %d covers %d of 17 indices", f, len(union))
		}
	}
	for i := 0; i < 17; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d appears in %d test folds, want 1", i, seen[i])
		}
	}
	if _, _, err := KFold(1, 5, 0); err == nil {
		t.Error("KFold(1) should error")
	}
}

func TestScalerRange(t *testing.T) {
	x := [][]float64{{0, 100, -5}, {10, 200, -5}, {5, 150, -5}}
	var s Scaler
	scaled, err := s.FitTransform(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range scaled {
		for j, v := range row {
			if j == 2 {
				if v != 0 {
					t.Errorf("constant feature should scale to 0, got %v", v)
				}
				continue
			}
			if v < -1-1e-12 || v > 1+1e-12 {
				t.Errorf("scaled value %v outside [-1,1]", v)
			}
		}
	}
	if scaled[0][0] != -1 || scaled[1][0] != 1 {
		t.Errorf("min/max should map to -1/1: %v", scaled)
	}
	if !s.Fitted() {
		t.Error("Fitted() false after Fit")
	}
	var empty Scaler
	if err := empty.Fit(nil); err == nil {
		t.Error("Fit on empty data should error")
	}
}

func TestScalerInverseRoundTrip(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) ||
			math.Abs(a) > 1e100 || math.Abs(b) > 1e100 || math.Abs(c) > 1e100 {
			return true
		}
		x := [][]float64{{a}, {b}, {c}}
		var s Scaler
		if err := s.Fit(x); err != nil {
			return false
		}
		for _, row := range x {
			back := s.Inverse(s.Transform(row))
			span := s.Max[0] - s.Min[0]
			tol := 1e-9 * (1 + math.Abs(span) + math.Abs(row[0]))
			if math.Abs(back[0]-row[0]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKernels(t *testing.T) {
	a, b := []float64{1, 0}, []float64{0, 1}
	if got := (RBFKernel{Gamma: 1}).Eval(a, a); got != 1 {
		t.Errorf("RBF(a,a) = %v, want 1", got)
	}
	if got := (RBFKernel{Gamma: 1}).Eval(a, b); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Errorf("RBF(a,b) = %v", got)
	}
	if got := (LinearKernel{}).Eval(a, b); got != 0 {
		t.Errorf("linear = %v", got)
	}
}

func TestKernelSymmetryQuick(t *testing.T) {
	k := RBFKernel{Gamma: 0.5}
	f := func(a1, a2, b1, b2 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		a := []float64{clamp(a1), clamp(a2)}
		b := []float64{clamp(b1), clamp(b2)}
		ab, ba := k.Eval(a, b), k.Eval(b, a)
		return ab == ba && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSVMBinarySeparable(t *testing.T) {
	ds := blobs(60, 2, 2, 0.3, 42)
	m := NewSVM(RBFKernel{Gamma: 0.5}, 10)
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, ds); acc < 0.99 {
		t.Errorf("training accuracy %v on separable blobs, want ~1", acc)
	}
	if m.NumSupportVectors() == 0 {
		t.Error("no support vectors")
	}
}

func TestSVMMulticlass(t *testing.T) {
	train := blobs(120, 4, 3, 0.5, 7)
	test := blobs(80, 4, 3, 0.5, 8)
	m := NewSVM(RBFKernel{Gamma: 0.3}, 10)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if got := m.Classes(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("classes = %v", got)
	}
	if acc := Accuracy(m, test); acc < 0.95 {
		t.Errorf("test accuracy %v, want >= 0.95", acc)
	}
	// Scores align with prediction.
	for i := 0; i < 10; i++ {
		x := test.X[i]
		pred := m.Predict(x)
		scores := m.Scores(x)
		best, bestS := -1, math.Inf(-1)
		for c, s := range scores {
			if s > bestS {
				best, bestS = c, s
			}
		}
		if m.Classes()[best] != pred {
			t.Fatalf("Predict (%d) disagrees with argmax Scores (%d)", pred, m.Classes()[best])
		}
	}
	if len(m.DecisionValues(test.X[0])) != 6 {
		t.Errorf("want 6 pairwise decisions for 4 classes, got %d", len(m.DecisionValues(test.X[0])))
	}
}

func TestSVMSingleClass(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{5, 5, 5}}
	m := DefaultSVM()
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{100}); got != 5 {
		t.Errorf("single-class predict = %d, want 5", got)
	}
}

func TestSVMGammaDefaultedFromDim(t *testing.T) {
	ds := blobs(40, 2, 5, 0.3, 3)
	m := DefaultSVM()
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	rbf, ok := m.Kernel().(RBFKernel)
	if !ok {
		t.Fatalf("kernel is %T", m.Kernel())
	}
	if math.Abs(rbf.Gamma-0.2) > 1e-12 {
		t.Errorf("gamma = %v, want 1/dim = 0.2", rbf.Gamma)
	}
}

func TestSVMErrors(t *testing.T) {
	m := DefaultSVM()
	if err := m.Fit(&Dataset{}); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := solveBinary(nil, nil, LinearKernel{}, 1, 1e-3, 10); err == nil {
		t.Error("empty binary problem should error")
	}
	if _, err := solveBinary([][]float64{{1}}, []float64{1}, LinearKernel{}, -1, 1e-3, 10); err == nil {
		t.Error("negative C should error")
	}
	if _, err := solveBinary([][]float64{{1}}, []float64{1, 2}, LinearKernel{}, 1, 1e-3, 10); err == nil {
		t.Error("len mismatch should error")
	}
}

// KKT sanity: dual coefficients stay inside the box [-C, C] after folding y.
func TestSMOBoxConstraint(t *testing.T) {
	ds := blobs(50, 2, 2, 1.5, 9) // overlapping blobs force bound SVs
	c := 2.0
	var x [][]float64
	var y []float64
	for i := range ds.X {
		x = append(x, ds.X[i])
		if ds.Y[i] == 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	sol, err := solveBinary(x, y, RBFKernel{Gamma: 0.5}, c, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, coef := range sol.svCoef {
		if math.Abs(coef) > c+1e-9 {
			t.Errorf("|alpha*y| = %v exceeds C = %v", math.Abs(coef), c)
		}
	}
	if sol.iters == 0 {
		t.Error("solver did no iterations on a non-trivial problem")
	}
}

func TestBvSBMargin(t *testing.T) {
	ds := blobs(60, 3, 2, 0.4, 11)
	m := NewSVM(RBFKernel{Gamma: 0.5}, 10)
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// A point at a class centre should have a larger margin than a midpoint
	// between two class centres.
	center := ds.X[0]
	mid := make([]float64, 2)
	for j := range mid {
		mid[j] = (ds.X[0][j] + ds.X[1][j]) / 2
	}
	if BvSBMargin(m, center) <= BvSBMargin(m, mid) {
		t.Errorf("margin at centre (%v) should exceed margin at boundary (%v)",
			BvSBMargin(m, center), BvSBMargin(m, mid))
	}
}

func TestDecisionTree(t *testing.T) {
	train := blobs(90, 3, 2, 0.4, 5)
	test := blobs(30, 3, 2, 0.4, 6)
	m := NewDecisionTree(0, 0)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, test); acc < 0.85 {
		t.Errorf("tree accuracy %v", acc)
	}
	if m.Depth() < 1 {
		t.Errorf("tree depth %d, expected a real split", m.Depth())
	}
	if err := m.Fit(&Dataset{}); err == nil {
		t.Error("empty fit should error")
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{7, 7, 7}}
	m := NewDecisionTree(4, 1)
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{-10}); got != 7 {
		t.Errorf("pure dataset predict = %d", got)
	}
	if m.Depth() != 0 {
		t.Errorf("pure dataset should be a leaf, depth %d", m.Depth())
	}
}

func TestCrossValidateAndGridSearch(t *testing.T) {
	ds := blobs(60, 3, 2, 0.5, 13)
	acc, err := CrossValidate(func() Classifier { return NewSVM(RBFKernel{Gamma: 0.5}, 10) }, ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("CV accuracy %v", acc)
	}
	m, res, err := GridSearchSVM(ds, GridConfig{
		CValues:     []float64{1, 10},
		GammaValues: []float64{0.1, 1},
		Folds:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 4 {
		t.Errorf("evaluated %d grid points, want 4", res.Evaluated)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("grid search best accuracy %v", res.Accuracy)
	}
	if Accuracy(m, ds) < 0.95 {
		t.Errorf("final model training accuracy %v", Accuracy(m, ds))
	}
}

func TestGridSearchDegenerate(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 0}}
	m, res, err := GridSearchSVM(ds, GridConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{5}) != 0 {
		t.Error("degenerate grid search should still predict the lone class")
	}
	if res.Evaluated != 0 {
		t.Errorf("degenerate path evaluated %d grid points, want 0", res.Evaluated)
	}
	if want := Accuracy(m, ds); res.Accuracy != want {
		t.Errorf("degenerate path reported accuracy %v, want measured %v", res.Accuracy, want)
	}
	if _, _, err := GridSearchSVM(nil, GridConfig{}); err == nil {
		t.Error("nil dataset should error")
	}
}

func TestActiveLearningBvSBBeatsFewRandomQueries(t *testing.T) {
	full := blobs(200, 3, 2, 0.8, 21)
	test := blobs(100, 3, 2, 0.8, 22)

	// Seed: one example per class.
	var seedX [][]float64
	var seedY []int
	var poolX [][]float64
	var poolY []int
	seen := map[int]bool{}
	for i := range full.X {
		if !seen[full.Y[i]] {
			seen[full.Y[i]] = true
			seedX = append(seedX, full.X[i])
			seedY = append(seedY, full.Y[i])
		} else {
			poolX = append(poolX, full.X[i])
			poolY = append(poolY, full.Y[i])
		}
	}

	run := func(strat QueryStrategy, iters int) float64 {
		al, err := NewActiveLearner(seedX, seedY, poolX, func(i int) int { return poolY[i] })
		if err != nil {
			t.Fatal(err)
		}
		al.Strategy = strat
		al.Factory = func() Classifier { return NewSVM(RBFKernel{Gamma: 0.5}, 10) }
		clf, err := al.RunIterations(iters)
		if err != nil {
			t.Fatal(err)
		}
		return Accuracy(clf, test)
	}

	bvsb := run(BvSBStrategy{}, 20)
	if bvsb < 0.85 {
		t.Errorf("BvSB with 20 queries reached only %v accuracy", bvsb)
	}
}

func TestActiveLearnerAccounting(t *testing.T) {
	full := blobs(50, 2, 2, 0.4, 31)
	seedX := [][]float64{full.X[0], full.X[1]}
	seedY := []int{full.Y[0], full.Y[1]}
	poolX := full.X[2:]
	poolY := full.Y[2:]
	al, err := NewActiveLearner(seedX, seedY, poolX, func(i int) int { return poolY[i] })
	if err != nil {
		t.Fatal(err)
	}
	if al.PoolCount() != 48 || al.LabeledCount() != 2 {
		t.Fatalf("initial counts wrong: pool=%d labeled=%d", al.PoolCount(), al.LabeledCount())
	}
	if _, err := al.RunIterations(5); err != nil {
		t.Fatal(err)
	}
	if al.Queries() != 5 || al.PoolCount() != 43 || al.LabeledCount() != 7 {
		t.Errorf("after 5 steps: queries=%d pool=%d labeled=%d", al.Queries(), al.PoolCount(), al.LabeledCount())
	}
	// Exhaust the pool: further steps report no progress.
	if _, err := al.RunIterations(1000); err != nil {
		t.Fatal(err)
	}
	ok, err := al.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Step on empty pool should report false")
	}
	if _, err := NewActiveLearner(nil, nil, poolX, nil); err == nil {
		t.Error("empty seed should error")
	}
}

func TestActiveLearnerRunToAccuracy(t *testing.T) {
	full := blobs(120, 2, 2, 0.3, 41)
	valid := blobs(60, 2, 2, 0.3, 42)
	seedX := [][]float64{full.X[0], full.X[1]}
	seedY := []int{full.Y[0], full.Y[1]}
	poolX := full.X[2:]
	poolY := full.Y[2:]
	al, _ := NewActiveLearner(seedX, seedY, poolX, func(i int) int { return poolY[i] })
	al.Factory = func() Classifier { return NewSVM(RBFKernel{Gamma: 0.5}, 10) }
	clf, q, err := al.RunToAccuracy(valid, 0.95, 50)
	if err != nil {
		t.Fatal(err)
	}
	if Accuracy(clf, valid) < 0.95 && q < 50 && al.PoolCount() > 0 {
		t.Errorf("stopped early below target: acc=%v queries=%d", Accuracy(clf, valid), q)
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	ds := blobs(60, 3, 2, 0.4, 17)
	var s Scaler
	scaled, err := s.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	scaledDS := &Dataset{X: scaled, Y: ds.Y}

	for _, mk := range []func() Classifier{
		func() Classifier { return NewSVM(RBFKernel{Gamma: 0.7}, 4) },
		func() Classifier { return NewSVM(LinearKernel{}, 4) },
	} {
		clf := mk()
		if err := clf.Fit(scaledDS); err != nil {
			t.Fatal(err)
		}
		model := &Model{Classifier: clf, Scaler: &s}
		data, err := MarshalModel(model)
		if err != nil {
			t.Fatalf("%s: %v", clf.Name(), err)
		}
		back, err := UnmarshalModel(data)
		if err != nil {
			t.Fatalf("%s: %v", clf.Name(), err)
		}
		for i := range ds.X {
			if model.Predict(ds.X[i]) != back.Predict(ds.X[i]) {
				t.Fatalf("%s: prediction changed after round trip at %d", clf.Name(), i)
			}
		}
	}
}

func TestUnmarshalModelErrors(t *testing.T) {
	if _, err := UnmarshalModel([]byte("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := UnmarshalModel([]byte(`{"kind":"nope"}`)); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := UnmarshalModel([]byte(`{"kind":"svm"}`)); err == nil {
		t.Error("missing body should error")
	}
	if _, err := MarshalModel(nil); err == nil {
		t.Error("nil model should error")
	}
}

// Property: SVM training is deterministic — same data, same model behaviour.
func TestQuickSVMDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		ds := blobs(40, 2, 2, 0.5, seed%1000)
		m1 := NewSVM(RBFKernel{Gamma: 0.5}, 5)
		m2 := NewSVM(RBFKernel{Gamma: 0.5}, 5)
		if m1.Fit(ds) != nil || m2.Fit(ds) != nil {
			return false
		}
		for _, x := range ds.X {
			if m1.Predict(x) != m2.Predict(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := DefaultSVM()
	if got := Accuracy(m, &Dataset{}); got != 0 {
		t.Errorf("accuracy on empty set = %v", got)
	}
}

// TestSMOMaxMarginOptimality solves a tiny linearly separable problem with a
// known optimum: points at x = -1 and x = +1 give the max-margin separator
// f(x) = x (w = 1, b = 0). The SMO solution's decision values must match.
func TestSMOMaxMarginOptimality(t *testing.T) {
	x := [][]float64{{-1}, {1}}
	y := []float64{-1, 1}
	sol, err := solveBinary(x, y, LinearKernel{}, 100, 1e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want float64 }{{-1, -1}, {1, 1}, {0, 0}, {3, 3}} {
		got := sol.decision(LinearKernel{}, []float64{tc.in})
		if math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("decision(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestSMOKKTConditions verifies the dual solution satisfies the KKT
// conditions: margin >= 1 for non-SVs, == 1 for free SVs, <= 1 for bound SVs.
func TestSMOKKTConditions(t *testing.T) {
	ds := blobs(60, 2, 2, 1.2, 13) // overlap forces all three SV categories
	c := 2.0
	var x [][]float64
	var y []float64
	for i := range ds.X {
		x = append(x, ds.X[i])
		if ds.Y[i] == 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	k := RBFKernel{Gamma: 0.5}
	sol, err := solveBinary(x, y, k, c, 1e-5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Recover per-point alpha from the SV list (0 for non-SVs).
	alpha := make([]float64, len(x))
	for s, sv := range sol.svX {
		for i := range x {
			if &x[i][0] == &sv[0] { // same backing array: identity match
				alpha[i] = math.Abs(sol.svCoef[s])
			}
		}
	}
	const tol = 1e-2
	for i := range x {
		margin := y[i] * sol.decision(k, x[i])
		switch {
		case alpha[i] < 1e-9: // non-SV
			if margin < 1-tol {
				t.Errorf("non-SV %d has margin %v < 1", i, margin)
			}
		case alpha[i] > c-1e-9: // bound SV
			if margin > 1+tol {
				t.Errorf("bound SV %d has margin %v > 1", i, margin)
			}
		default: // free SV
			if math.Abs(margin-1) > tol {
				t.Errorf("free SV %d has margin %v != 1", i, margin)
			}
		}
	}
}
