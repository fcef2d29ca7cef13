package ml

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// explainFixture trains the 3-class SVM model the core tests use: label 0 for
// x<3, 1 for 3<=x<6, 2 for x>=6, with a fitted [-1,1] scaler.
func explainFixture(t *testing.T) *Model {
	t.Helper()
	ds := &Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		switch {
		case x >= 6:
			label = 2
		case x >= 3:
			label = 1
		}
		ds.Append([]float64{x}, label)
	}
	scaler := &Scaler{}
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := NewSVM(RBFKernel{Gamma: 1}, 10)
	if err := svm.Fit(&Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	return &Model{Classifier: svm, Scaler: scaler, Meta: &ModelMeta{Version: 7, TrainedOn: ds.Len()}}
}

func TestExplainMatchesDispatchPaths(t *testing.T) {
	m := explainFixture(t)
	for x := 0.0; x <= 9; x += 0.5 {
		in := []float64{x}
		ex := m.Explain(in)
		if ex.Predicted != m.Predict(in) {
			t.Fatalf("x=%v: Explain.Predicted=%d != Predict=%d", x, ex.Predicted, m.Predict(in))
		}
		ranked := m.RankedClasses(in)
		if fmt.Sprint(ex.Ranked) != fmt.Sprint(ranked) {
			t.Fatalf("x=%v: Explain.Ranked=%v != RankedClasses=%v", x, ex.Ranked, ranked)
		}
		if len(ex.Ranked) == 0 || ex.Ranked[0] != ex.Predicted {
			t.Fatalf("x=%v: Ranked[0]=%v != Predicted=%d", x, ex.Ranked, ex.Predicted)
		}
		scores := m.Scores(in)
		if len(ex.Scores) != len(scores) {
			t.Fatalf("x=%v: scores length mismatch", x)
		}
		for i := range scores {
			if math.Abs(ex.Scores[i]-scores[i]) > 1e-15 {
				t.Fatalf("x=%v: Explain.Scores=%v != Scores=%v", x, ex.Scores, scores)
			}
		}
	}
}

func TestExplainSVMInternals(t *testing.T) {
	m := explainFixture(t)
	svm := m.Classifier.(*SVM)
	in := []float64{4}
	ex := m.Explain(in)

	if ex.Version != 7 {
		t.Errorf("Version = %d, want 7", ex.Version)
	}
	if len(ex.Raw) != 1 || ex.Raw[0] != 4 {
		t.Errorf("Raw = %v", ex.Raw)
	}
	if ex.Scaled == nil {
		t.Fatal("Scaled is nil despite fitted scaler")
	}
	wantScaled := m.Scaler.Transform(in)
	if ex.Scaled[0] != wantScaled[0] {
		t.Errorf("Scaled = %v, want %v", ex.Scaled, wantScaled)
	}
	// Pair decisions must be the raw DecisionValues over the scaled vector.
	wantDV := svm.DecisionValues(wantScaled)
	if fmt.Sprint(ex.PairDecisions) != fmt.Sprint(wantDV) {
		t.Errorf("PairDecisions = %v, want %v", ex.PairDecisions, wantDV)
	}
	pairs := svm.PairClasses()
	if len(pairs) != 3 || len(ex.PairClasses) != 3 {
		t.Fatalf("PairClasses = %v (svm reports %v), want 3 one-vs-one pairs", ex.PairClasses, pairs)
	}
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	for i, p := range pairs {
		if p != want[i] {
			t.Errorf("pair %d = %v, want %v", i, p, want[i])
		}
	}
	// The explanation owns its slices: mutating the input must not alter it.
	in[0] = 99
	if ex.Raw[0] != 4 {
		t.Error("Explanation.Raw aliases the caller's slice")
	}
}

func TestExplainNonSVMLeavesPairFieldsNil(t *testing.T) {
	m := &Model{Classifier: &tiedClassifier{classes: []int{0, 1}}}
	ex := m.Explain([]float64{5})
	if ex.PairDecisions != nil || ex.PairClasses != nil {
		t.Fatalf("non-SVM explanation has pair fields: %+v", ex)
	}
	if ex.Scaled != nil {
		t.Fatalf("no scaler, but Scaled = %v", ex.Scaled)
	}
	if ex.Predicted != m.Predict([]float64{5}) {
		t.Fatalf("Predicted = %d", ex.Predicted)
	}
	if ex.Version != 0 {
		t.Fatalf("unstamped model Version = %d", ex.Version)
	}
}

// tiedClassifier returns identical scores for every class: the pathological
// input for rank stability.
type tiedClassifier struct{ classes []int }

func (c *tiedClassifier) Fit(*Dataset) error { return nil }
func (c *tiedClassifier) Predict(x []float64) int {
	// Argmax with first-wins tie break, like every real classifier here.
	return c.classes[0]
}
func (c *tiedClassifier) Scores(x []float64) []float64 {
	return make([]float64, len(c.classes)) // all zero: total tie
}
func (c *tiedClassifier) Classes() []int { return c.classes }
func (c *tiedClassifier) Name() string   { return "tied" }

func TestRankedClassesTieBreakDeterministic(t *testing.T) {
	m := &Model{Classifier: &tiedClassifier{classes: []int{3, 1, 4, 0, 2}}}
	want := fmt.Sprint([]int{3, 1, 4, 0, 2}) // Classes() order under a total tie

	// Stable across serial repetition.
	for i := 0; i < 100; i++ {
		if got := fmt.Sprint(m.RankedClasses([]float64{1})); got != want {
			t.Fatalf("run %d: ranked %v, want Classes() order %v", i, got, want)
		}
	}
	if m.RankedClasses([]float64{1})[0] != m.Predict([]float64{1}) {
		t.Fatal("tie-broken head disagrees with Predict")
	}

	// Stable across GOMAXPROCS values and concurrent callers.
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		old := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := fmt.Sprint(m.RankedClasses([]float64{1})); got != want {
						select {
						case errs <- got:
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(old)
		select {
		case got := <-errs:
			t.Fatalf("GOMAXPROCS=%d: ranked %v, want %v", procs, got, want)
		default:
		}
	}
}

func TestRankedClassesPartialTie(t *testing.T) {
	// Classes 10,20,30 with scores [0.5, 0.9, 0.5]: 20 first, then the tied
	// pair in Classes() order.
	m := &Model{Classifier: &scriptedClassifier{
		classes: []int{10, 20, 30}, scores: []float64{0.5, 0.9, 0.5},
	}}
	got := fmt.Sprint(m.RankedClasses(nil))
	if got != fmt.Sprint([]int{20, 10, 30}) {
		t.Fatalf("partial-tie rank = %v, want [20 10 30]", got)
	}
}

type scriptedClassifier struct {
	classes []int
	scores  []float64
}

func (c *scriptedClassifier) Fit(*Dataset) error           { return nil }
func (c *scriptedClassifier) Predict(x []float64) int      { return c.classes[argmax(c.scores)] }
func (c *scriptedClassifier) Scores(x []float64) []float64 { return c.scores }
func (c *scriptedClassifier) Classes() []int               { return c.classes }
func (c *scriptedClassifier) Name() string                 { return "scripted" }

func argmax(s []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range s {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
