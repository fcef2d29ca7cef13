package ml

import (
	"math"
	"testing"
)

func TestConfusionMatrix(t *testing.T) {
	train := blobs(90, 3, 2, 0.4, 4)
	m := DefaultSVM()
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	test := blobs(60, 3, 2, 0.4, 5)
	cm := ConfusionMatrix(m, test)
	if len(cm.Classes) != 3 {
		t.Fatalf("classes = %v", cm.Classes)
	}
	if math.Abs(cm.Accuracy()-Accuracy(m, test)) > 1e-12 {
		t.Errorf("confusion accuracy %v vs direct %v", cm.Accuracy(), Accuracy(m, test))
	}
	total := 0
	for i := range cm.Counts {
		for _, v := range cm.Counts[i] {
			total += v
		}
	}
	if total != test.Len() {
		t.Errorf("counts sum to %d, want %d", total, test.Len())
	}
	rec := cm.Recall()
	for i, r := range rec {
		if r < 0 || r > 1 {
			t.Errorf("recall[%d] = %v", i, r)
		}
	}
	if (Confusion{}).Accuracy() != 0 {
		t.Error("empty confusion accuracy should be 0")
	}
}

func TestConfusionMatrixUnknownTestLabel(t *testing.T) {
	train := &Dataset{X: [][]float64{{0}, {1}}, Y: []int{0, 1}}
	m := DefaultSVM()
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	test := &Dataset{X: [][]float64{{0}, {5}}, Y: []int{0, 7}} // label 7 unseen
	cm := ConfusionMatrix(m, test)
	if len(cm.Classes) != 3 {
		t.Fatalf("unseen label not included: %v", cm.Classes)
	}
}
