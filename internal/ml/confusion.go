package ml

// Confusion is a confusion matrix over a label set.
type Confusion struct {
	Classes []int
	// Counts[i][j] counts examples of true class Classes[i] predicted as
	// Classes[j].
	Counts [][]int
}

// ConfusionMatrix evaluates clf on ds. Labels absent from the classifier's
// training set still get rows/columns.
func ConfusionMatrix(clf Classifier, ds *Dataset) Confusion {
	seen := map[int]bool{}
	for _, c := range clf.Classes() {
		seen[c] = true
	}
	for _, y := range ds.Y {
		seen[y] = true
	}
	var classes []int
	for c := range seen {
		classes = append(classes, c)
	}
	// Deterministic order.
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	idx := make(map[int]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	cm := Confusion{Classes: classes, Counts: make([][]int, len(classes))}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, len(classes))
	}
	for i, x := range ds.X {
		pred := clf.Predict(x)
		if _, ok := idx[pred]; !ok {
			continue
		}
		cm.Counts[idx[ds.Y[i]]][idx[pred]]++
	}
	return cm
}

// Accuracy returns the trace fraction.
func (c Confusion) Accuracy() float64 {
	total, diag := 0, 0
	for i := range c.Counts {
		for j, v := range c.Counts[i] {
			total += v
			if i == j {
				diag += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// Recall returns per-class recall aligned with Classes (0 where a class has
// no examples).
func (c Confusion) Recall() []float64 {
	out := make([]float64, len(c.Classes))
	for i := range c.Counts {
		row := 0
		for _, v := range c.Counts[i] {
			row += v
		}
		if row > 0 {
			out[i] = float64(c.Counts[i][i]) / float64(row)
		}
	}
	return out
}
