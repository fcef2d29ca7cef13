package sparse

import "math"

// Features holds the five structural features the paper uses for SpMV
// variant selection (Section IV, Fig. 4), plus the raw size quantities the
// example in Fig. 2 registers (NNZ, NumRows).
type Features struct {
	NNZ          float64 // stored nonzeros
	NumRows      float64
	NumCols      float64
	AvgNZPerRow  float64 // average row length
	RowLenStdDev float64 // "RL-SD"
	MaxDeviation float64 // longest row minus average row length
	DIAFill      float64 // (ndiags*rows)/nnz fill-in estimate for DIA
	ELLFill      float64 // (maxRowLen*rows)/nnz fill-in estimate for ELL
}

// Vector returns the paper's 5-feature vector in a fixed order:
// [AvgNZPerRow, RowLenStdDev, MaxDeviation, DIAFill, ELLFill].
func (f Features) Vector() []float64 {
	return []float64{f.AvgNZPerRow, f.RowLenStdDev, f.MaxDeviation, f.DIAFill, f.ELLFill}
}

// FeatureNames lists the feature order used by Features.Vector.
func FeatureNames() []string {
	return []string{"AvgNZPerRow", "RL-SD", "MaxDeviation", "DIA-Fill", "ELL-Fill"}
}

// ComputeFeatures derives the SpMV selection features from a CSR matrix in
// one pass over the row-pointer array (cheap: O(rows), no value traffic) plus
// one pass over the column indices for the diagonal count (the expensive
// part, O(nnz) — this asymmetry is what Fig. 8's overhead analysis is about).
func ComputeFeatures(m *CSR) Features { return featuresOf(m, CountDiagonals(m)) }

// featuresOf derives the features of m given its distinct-diagonal count.
func featuresOf(m *CSR, ndiags int) Features {
	f := Features{
		NNZ:     float64(m.NNZ()),
		NumRows: float64(m.Rows),
		NumCols: float64(m.Cols),
	}
	if m.Rows == 0 {
		return f
	}
	maxLen := 0
	var sum, sumSq float64
	for i := 0; i < m.Rows; i++ {
		l := m.RowLen(i)
		if l > maxLen {
			maxLen = l
		}
		sum += float64(l)
		sumSq += float64(l) * float64(l)
	}
	n := float64(m.Rows)
	f.AvgNZPerRow = sum / n
	variance := sumSq/n - f.AvgNZPerRow*f.AvgNZPerRow
	if variance < 0 {
		variance = 0
	}
	f.RowLenStdDev = math.Sqrt(variance)
	f.MaxDeviation = float64(maxLen) - f.AvgNZPerRow

	nnz := f.NNZ
	if nnz == 0 {
		nnz = 1
	}
	f.DIAFill = float64(ndiags) * n / nnz
	f.ELLFill = float64(maxLen) * n / nnz
	return f
}

// CountDiagonals returns the number of distinct occupied diagonals. Offset
// col-row lies in (-Rows, Cols), so one flag per possible offset replaces a
// set.
func CountDiagonals(m *CSR) int {
	seen := make([]bool, m.Rows+m.Cols)
	n := 0
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if d := int(m.ColIdx[p]) - i + m.Rows; !seen[d] {
				seen[d] = true
				n++
			}
		}
	}
	return n
}

// XReuse estimates the average number of times each touched element of the
// input vector x is gathered during one SpMV: nnz over distinct columns. It
// feeds the texture-cache model.
func XReuse(m *CSR) float64 {
	if m.NNZ() == 0 {
		return 1
	}
	seen := make([]bool, m.Cols)
	distinct := 0
	for _, c := range m.ColIdx {
		if !seen[c] {
			seen[c] = true
			distinct++
		}
	}
	return float64(m.NNZ()) / float64(distinct)
}
