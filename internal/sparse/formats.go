// Package sparse implements the sparse-matrix substrate of the Nitro
// reproduction: the COO, CSR, DIA and ELL storage formats with conversions
// (the formats CUSP exposes and the paper's SpMV benchmark selects among),
// the structural features Nitro uses for SpMV variant selection, seeded
// matrix generators standing in for the UFL Sparse Matrix collection, a
// Matrix Market-style text codec, and the six SpMV code variants
// (CSR-Vec, DIA, ELL and their texture-cached twins) costed on the GPU
// model in internal/gpusim.
package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// COO is the coordinate format: (row, col, value) triplets. It is the
// exchange format generators and the Matrix Market codec produce.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the stored-entry count.
func (m *COO) NNZ() int { return len(m.Vals) }

// Validate checks structural invariants.
func (m *COO) Validate() error {
	if len(m.RowIdx) != len(m.Vals) || len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("sparse: COO arrays disagree: %d/%d/%d", len(m.RowIdx), len(m.ColIdx), len(m.Vals))
	}
	for i := range m.Vals {
		if r, c := int(m.RowIdx[i]), int(m.ColIdx[i]); r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
			return fmt.Errorf("sparse: entry %d at (%d,%d) outside %dx%d", i, r, c, m.Rows, m.Cols)
		}
	}
	return nil
}

// MulVec computes y = A*x with the reference COO kernel (the loop from the
// paper's Section II). y must have length Rows; it is zeroed first.
func (m *COO) MulVec(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for i := range m.Vals {
		y[m.RowIdx[i]] += m.Vals[i] * x[m.ColIdx[i]]
	}
}

// CSR is the compressed sparse row format: RowPtr has Rows+1 entries.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the stored-entry count.
func (m *CSR) NNZ() int { return len(m.Vals) }

// RowLen returns the number of stored entries in row i.
func (m *CSR) RowLen(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// maxRowLen returns the longest row's entry count: the ELL width.
func (m *CSR) maxRowLen() int {
	width := 0
	for i := 0; i < m.Rows; i++ {
		width = max(width, m.RowLen(i))
	}
	return width
}

// Validate checks structural invariants: monotone row pointers, in-range and
// sorted column indices.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: CSR RowPtr has %d entries, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[m.Rows]) != len(m.Vals) {
		return errors.New("sparse: CSR RowPtr endpoints wrong")
	}
	if len(m.ColIdx) != len(m.Vals) {
		return errors.New("sparse: CSR ColIdx/Vals length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: CSR RowPtr not monotone at row %d", i)
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := int(m.ColIdx[p])
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: CSR column %d out of range in row %d", c, i)
			}
			if p > m.RowPtr[i] && m.ColIdx[p] <= m.ColIdx[p-1] {
				return fmt.Errorf("sparse: CSR columns not strictly sorted in row %d", i)
			}
		}
	}
	return nil
}

// MulVec computes y = A*x with the reference row-serial CSR kernel.
func (m *CSR) MulVec(x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			sum += m.Vals[p] * x[m.ColIdx[p]]
		}
		y[i] = sum
	}
}

// Diag returns the main-diagonal entries (zero where absent).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.ColIdx[p]) == i {
				d[i] = m.Vals[p]
			}
		}
	}
	return d
}

// Transpose returns the transposed matrix in CSR form.
func (m *CSR) Transpose() *CSR {
	counts := make([]int32, m.Cols+1)
	for _, c := range m.ColIdx {
		counts[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		counts[i+1] += counts[i]
	}
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: counts,
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float64, m.NNZ()),
	}
	next := append([]int32(nil), counts[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			dst := next[c]
			next[c]++
			t.ColIdx[dst] = int32(i)
			t.Vals[dst] = m.Vals[p]
		}
	}
	return t
}

// ToCOO converts to coordinate form.
func (m *CSR) ToCOO() *COO {
	out := &COO{Rows: m.Rows, Cols: m.Cols,
		RowIdx: make([]int32, m.NNZ()), ColIdx: make([]int32, m.NNZ()), Vals: make([]float64, m.NNZ())}
	copy(out.ColIdx, m.ColIdx)
	copy(out.Vals, m.Vals)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.RowIdx[p] = int32(i)
		}
	}
	return out
}

// ToCSR converts coordinate form to CSR, summing duplicate entries and
// sorting columns within each row. One counting pass buckets the entries
// by row and each row's columns are then sorted alone, so the generators,
// which emit rows in order, pay for short sorts only. Two duplicates sum
// to the same value in either order, but three or more do not, nor do two
// NaNs, whose sum keeps one operand's payload. A matrix in which some
// (row, col) occurs three or more times, or twice as NaN, is therefore
// converted by sorting all its entries as one array, which fixes the order
// in which every duplicate run is summed.
func (m *COO) ToCSR() *CSR {
	nnz := m.NNZ()
	rowPtr := make([]int32, m.Rows+1)
	for _, r := range m.RowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	ents := make([]colVal, nnz)
	next := append([]int32(nil), rowPtr[:m.Rows]...)
	for i, r := range m.RowIdx {
		ents[next[r]] = colVal{m.ColIdx[i], m.Vals[i]}
		next[r]++
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: rowPtr,
		ColIdx: make([]int32, 0, nnz), Vals: make([]float64, 0, nnz)}
	// rowPtr[i+1] ends row i's bucket in ents until the row is summed,
	// then ends its entries in out.
	lo := int32(0)
	for i := 0; i < m.Rows; i++ {
		row := ents[lo:rowPtr[i+1]]
		lo = rowPtr[i+1]
		sortByCol(row)
		for k := 0; k < len(row); {
			c, v, j := row[k].col, 0.0, k
			for ; j < len(row) && row[j].col == c; j++ {
				v += row[j].v
			}
			if j-k > 2 || j-k == 2 && math.IsNaN(row[k].v) && math.IsNaN(row[k+1].v) {
				return m.toCSRSorted()
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Vals = append(out.Vals, v)
			k = j
		}
		rowPtr[i+1] = int32(len(out.Vals))
	}
	return out
}

// colVal is one entry of a row being converted.
type colVal struct {
	col int32
	v   float64
}

// sortByCol sorts one row's entries by column, by insertion when the row is
// short, as most are.
func sortByCol(row []colVal) {
	if len(row) > 64 {
		slices.SortFunc(row, func(a, b colVal) int { return cmp.Compare(a.col, b.col) })
		return
	}
	for i := 1; i < len(row); i++ {
		e := row[i]
		j := i
		for ; j > 0 && row[j-1].col > e.col; j-- {
			row[j] = row[j-1]
		}
		row[j] = e
	}
}

// toCSRSorted is ToCSR over all entries sorted as one array by (row, col),
// the order in which ToCSR sums a repeated cell whenever the order matters.
func (m *COO) toCSRSorted() *CSR {
	// key orders entries by row, then column.
	type ent struct {
		key uint64
		v   float64
	}
	ents := make([]ent, m.NNZ())
	for i := range m.Vals {
		ents[i] = ent{uint64(uint32(m.RowIdx[i]))<<32 | uint64(uint32(m.ColIdx[i])), m.Vals[i]}
	}
	slices.SortFunc(ents, func(a, b ent) int { return cmp.Compare(a.key, b.key) })
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int32, m.Rows+1),
		ColIdx: make([]int32, 0, len(ents)), Vals: make([]float64, 0, len(ents))}
	for i := 0; i < len(ents); {
		j := i
		v := 0.0
		for j < len(ents) && ents[j].key == ents[i].key {
			v += ents[j].v
			j++
		}
		out.ColIdx = append(out.ColIdx, int32(uint32(ents[i].key)))
		out.Vals = append(out.Vals, v)
		out.RowPtr[ents[i].key>>32+1]++
		i = j
	}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// DIA stores a matrix by diagonals: Offsets[d] is the diagonal offset
// (col - row) and Data[d] its Rows entries (zero-padded where the diagonal
// leaves the matrix). It is only viable when the matrix has few distinct
// diagonals.
type DIA struct {
	Rows, Cols int
	Offsets    []int
	Data       [][]float64
}

// NDiags returns the stored-diagonal count.
func (m *DIA) NDiags() int { return len(m.Offsets) }

// Fill returns the DIA fill-in ratio: stored cells / nonzeros. 1 means no
// padding waste. Returns +Inf for an empty matrix.
func (m *DIA) Fill(nnz int) float64 {
	if nnz == 0 {
		return float64(m.Rows * m.NDiags())
	}
	return float64(m.Rows*m.NDiags()) / float64(nnz)
}

// MulVec computes y = A*x with the reference DIA kernel.
func (m *DIA) MulVec(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for d, off := range m.Offsets {
		data := m.Data[d]
		for i := 0; i < m.Rows; i++ {
			j := i + off
			if j >= 0 && j < m.Cols {
				y[i] += data[i] * x[j]
			}
		}
	}
}

// ErrTooManyDiagonals reports a CSR→DIA conversion abandoned because the
// matrix has more distinct diagonals than the caller allowed; attempting it
// would explode memory, which is exactly why the paper's SpMV benchmark
// guards the DIA variant with a cutoff constraint.
var ErrTooManyDiagonals = errors.New("sparse: matrix has too many distinct diagonals for DIA")

// ToDIA converts to DIA form, failing with ErrTooManyDiagonals if the number
// of distinct diagonals exceeds maxDiags (<=0 means Rows+Cols, i.e. no limit).
func (m *CSR) ToDIA(maxDiags int) (*DIA, error) {
	if maxDiags <= 0 {
		maxDiags = m.Rows + m.Cols
	}
	seen := map[int]int{} // offset -> slot
	var offsets []int
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			off := int(m.ColIdx[p]) - i
			if _, ok := seen[off]; !ok {
				if len(offsets) >= maxDiags {
					return nil, fmt.Errorf("%w: > %d", ErrTooManyDiagonals, maxDiags)
				}
				seen[off] = 0
				offsets = append(offsets, off)
			}
		}
	}
	sort.Ints(offsets)
	for slot, off := range offsets {
		seen[off] = slot
	}
	out := &DIA{Rows: m.Rows, Cols: m.Cols, Offsets: offsets, Data: make([][]float64, len(offsets))}
	for d := range out.Data {
		out.Data[d] = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			off := int(m.ColIdx[p]) - i
			out.Data[seen[off]][i] = m.Vals[p]
		}
	}
	return out, nil
}

// ELL is the ELLPACK format: every row is padded to MaxNZ entries; storage is
// column-major (entry k of every row is contiguous) so GPU lanes coalesce.
// Padding slots have ColIdx -1.
type ELL struct {
	Rows, Cols, MaxNZ int
	ColIdx            []int32   // len Rows*MaxNZ, column-major
	Vals              []float64 // len Rows*MaxNZ, column-major
}

// Fill returns the ELL fill-in ratio: stored cells / nonzeros.
func (m *ELL) Fill(nnz int) float64 {
	if nnz == 0 {
		return float64(m.Rows * m.MaxNZ)
	}
	return float64(m.Rows*m.MaxNZ) / float64(nnz)
}

// MulVec computes y = A*x with the reference ELL kernel.
func (m *ELL) MulVec(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for k := 0; k < m.MaxNZ; k++ {
		base := k * m.Rows
		for i := 0; i < m.Rows; i++ {
			if c := m.ColIdx[base+i]; c >= 0 {
				y[i] += m.Vals[base+i] * x[c]
			}
		}
	}
}

// ErrRowTooLong reports a CSR→ELL conversion abandoned because the widest
// row exceeds the caller's padding budget.
var ErrRowTooLong = errors.New("sparse: longest row exceeds ELL width budget")

// ToELL converts to ELL form, failing with ErrRowTooLong if the widest row
// exceeds maxWidth (<=0 means no limit).
func (m *CSR) ToELL(maxWidth int) (*ELL, error) {
	width := m.maxRowLen()
	if maxWidth > 0 && width > maxWidth {
		return nil, fmt.Errorf("%w: %d > %d", ErrRowTooLong, width, maxWidth)
	}
	out := &ELL{Rows: m.Rows, Cols: m.Cols, MaxNZ: width,
		ColIdx: make([]int32, m.Rows*width), Vals: make([]float64, m.Rows*width)}
	for i := range out.ColIdx {
		out.ColIdx[i] = -1
	}
	for i := 0; i < m.Rows; i++ {
		k := 0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.ColIdx[k*m.Rows+i] = m.ColIdx[p]
			out.Vals[k*m.Rows+i] = m.Vals[p]
			k++
		}
	}
	return out, nil
}
