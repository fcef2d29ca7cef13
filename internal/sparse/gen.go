package sparse

import (
	"math"
	"math/rand"
)

// The generators below build the synthetic corpus that substitutes for the
// UFL Sparse Matrix collection (see DESIGN.md). Each targets the structural
// regime of a UFL group: stencil/banded matrices favour DIA,
// regular-row-length matrices favour ELL, power-law matrices force CSR, and
// clustered-column matrices reward the texture-cached variants. All are
// seeded and deterministic.

// Stencil2D returns the 5-point Laplacian on an nx x ny grid: symmetric
// positive definite, 3 to 5 entries per row, exactly 5 diagonals — the
// DIA-format sweet spot.
func Stencil2D(nx, ny int) *CSR {
	n := nx * ny
	coo := &COO{Rows: n, Cols: n}
	add := func(r, c int, v float64) {
		coo.RowIdx = append(coo.RowIdx, int32(r))
		coo.ColIdx = append(coo.ColIdx, int32(c))
		coo.Vals = append(coo.Vals, v)
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := y*nx + x
			add(i, i, 4)
			if x > 0 {
				add(i, i-1, -1)
			}
			if x < nx-1 {
				add(i, i+1, -1)
			}
			if y > 0 {
				add(i, i-nx, -1)
			}
			if y < ny-1 {
				add(i, i+nx, -1)
			}
		}
	}
	return coo.ToCSR()
}

// Stencil3D returns the 7-point Laplacian on an nx x ny x nz grid (7
// diagonals, SPD).
func Stencil3D(nx, ny, nz int) *CSR {
	n := nx * ny * nz
	coo := &COO{Rows: n, Cols: n}
	add := func(r, c int, v float64) {
		coo.RowIdx = append(coo.RowIdx, int32(r))
		coo.ColIdx = append(coo.ColIdx, int32(c))
		coo.Vals = append(coo.Vals, v)
	}
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				add(i, i, 6)
				if x > 0 {
					add(i, idx(x-1, y, z), -1)
				}
				if x < nx-1 {
					add(i, idx(x+1, y, z), -1)
				}
				if y > 0 {
					add(i, idx(x, y-1, z), -1)
				}
				if y < ny-1 {
					add(i, idx(x, y+1, z), -1)
				}
				if z > 0 {
					add(i, idx(x, y, z-1), -1)
				}
				if z < nz-1 {
					add(i, idx(x, y, z+1), -1)
				}
			}
		}
	}
	return coo.ToCSR()
}

// Banded returns an n x n matrix with the given diagonal offsets fully
// populated (plus a dominant main diagonal), values in (0, 1]. A pure DIA
// matrix with zero fill-in.
func Banded(n int, offsets []int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n}
	hasMain := false
	for _, off := range offsets {
		if off == 0 {
			hasMain = true
		}
		for i := 0; i < n; i++ {
			j := i + off
			if j < 0 || j >= n {
				continue
			}
			v := rng.Float64()
			if off == 0 {
				v += float64(len(offsets)) // diagonal dominance
			}
			coo.RowIdx = append(coo.RowIdx, int32(i))
			coo.ColIdx = append(coo.ColIdx, int32(j))
			coo.Vals = append(coo.Vals, v)
		}
	}
	if !hasMain {
		for i := 0; i < n; i++ {
			coo.RowIdx = append(coo.RowIdx, int32(i))
			coo.ColIdx = append(coo.ColIdx, int32(i))
			coo.Vals = append(coo.Vals, float64(len(offsets))+rng.Float64())
		}
	}
	return coo.ToCSR()
}

// RegularRandom returns an n x n matrix with exactly k nonzeros in every row
// at uniformly random columns — the ELL sweet spot (fill-in exactly 1, but
// scattered columns defeat DIA).
func RegularRandom(n, k int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n}
	seen := newRowSet(n)
	for i := 0; i < n; i++ {
		seen.next(int32(i))
		coo.RowIdx = append(coo.RowIdx, int32(i))
		coo.ColIdx = append(coo.ColIdx, int32(i))
		coo.Vals = append(coo.Vals, float64(k)+rng.Float64())
		for seen.size < min(k, n) {
			c := int32(rng.Intn(n))
			if !seen.add(c) {
				continue
			}
			coo.RowIdx = append(coo.RowIdx, int32(i))
			coo.ColIdx = append(coo.ColIdx, c)
			coo.Vals = append(coo.Vals, rng.Float64()-0.5)
		}
	}
	return coo.ToCSR()
}

// PowerLaw returns an n x n matrix whose row lengths follow a truncated
// power law (a few very long rows, many short ones) — the regime where ELL
// and DIA fill-in explode and CSR-Vec wins.
func PowerLaw(n int, avgNZ float64, alpha float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	if alpha <= 1 {
		alpha = 2
	}
	coo := &COO{Rows: n, Cols: n}
	seen := newRowSet(n)
	for i := 0; i < n; i++ {
		// Pareto-ish row length scaled to the target average.
		u := rng.Float64()
		l := int(avgNZ * (alpha - 1) / alpha / math.Pow(1-u, 1/alpha))
		if l < 1 {
			l = 1
		}
		if l > n {
			l = n
		}
		seen.next(int32(i))
		coo.RowIdx = append(coo.RowIdx, int32(i))
		coo.ColIdx = append(coo.ColIdx, int32(i))
		coo.Vals = append(coo.Vals, avgNZ+rng.Float64())
		for seen.size < min(l, n) {
			c := int32(rng.Intn(n))
			if !seen.add(c) {
				continue
			}
			coo.RowIdx = append(coo.RowIdx, int32(i))
			coo.ColIdx = append(coo.ColIdx, c)
			coo.Vals = append(coo.Vals, rng.Float64()-0.5)
		}
	}
	return coo.ToCSR()
}

// BlockClustered returns an n x n matrix whose rows gather from a small
// window of columns (block structure, like FEM meshes): the input-vector
// working set per row is tiny and heavily reused, which is the regime where
// the texture-cached variants pay off.
func BlockClustered(n, rowLen, window int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	if window < rowLen {
		window = rowLen
	}
	coo := &COO{Rows: n, Cols: n}
	seen := newRowSet(n)
	for i := 0; i < n; i++ {
		base := i - window/2
		if base < 0 {
			base = 0
		}
		if base+window > n {
			base = n - window
		}
		if base < 0 {
			base = 0
		}
		seen.next(int32(i))
		coo.RowIdx = append(coo.RowIdx, int32(i))
		coo.ColIdx = append(coo.ColIdx, int32(i))
		coo.Vals = append(coo.Vals, float64(rowLen)+rng.Float64())
		limit := min(rowLen, min(window, n))
		for seen.size < limit {
			c := int32(base + rng.Intn(min(window, n)))
			if !seen.add(c) {
				continue
			}
			coo.RowIdx = append(coo.RowIdx, int32(i))
			coo.ColIdx = append(coo.ColIdx, c)
			coo.Vals = append(coo.Vals, rng.Float64()-0.5)
		}
	}
	return coo.ToCSR()
}

// RandomUniform returns an Erdos-Renyi style n x n matrix with expected
// density nnz entries plus a guaranteed dominant diagonal.
func RandomUniform(n, nnz int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		coo.RowIdx = append(coo.RowIdx, int32(i))
		coo.ColIdx = append(coo.ColIdx, int32(i))
		coo.Vals = append(coo.Vals, float64(nnz)/float64(n)+1+rng.Float64())
	}
	for e := 0; e < nnz; e++ {
		r, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		coo.RowIdx = append(coo.RowIdx, r)
		coo.ColIdx = append(coo.ColIdx, c)
		coo.Vals = append(coo.Vals, (rng.Float64()-0.5)*0.5)
	}
	return coo.ToCSR()
}

// SPD returns a symmetric positive-definite matrix built from a base pattern:
// B + B^T plus a diagonal shift that guarantees strict diagonal dominance
// scaled by dominance (>1 keeps it SPD; values near 1 are barely dominant and
// slow iterative solvers down, large values converge fast).
func SPD(base *CSR, dominance float64, seed int64) *CSR {
	if dominance < 1.01 {
		dominance = 1.01
	}
	t := base.Transpose()
	coo := &COO{Rows: base.Rows, Cols: base.Cols}
	push := func(m *CSR, scale float64) {
		for i := 0; i < m.Rows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if int(m.ColIdx[p]) == i {
					continue // diagonal rebuilt below
				}
				coo.RowIdx = append(coo.RowIdx, int32(i))
				coo.ColIdx = append(coo.ColIdx, m.ColIdx[p])
				coo.Vals = append(coo.Vals, m.Vals[p]*scale)
			}
		}
	}
	push(base, 0.5)
	push(t, 0.5)
	sym := coo.ToCSR()
	// Diagonal = dominance * sum |offdiag| per row (plus a floor).
	rowAbs := make([]float64, sym.Rows)
	for i := 0; i < sym.Rows; i++ {
		for p := sym.RowPtr[i]; p < sym.RowPtr[i+1]; p++ {
			rowAbs[i] += math.Abs(sym.Vals[p])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := sym.ToCOO()
	for i := 0; i < sym.Rows; i++ {
		out.RowIdx = append(out.RowIdx, int32(i))
		out.ColIdx = append(out.ColIdx, int32(i))
		out.Vals = append(out.Vals, dominance*rowAbs[i]+0.1+0.01*rng.Float64())
	}
	return out.ToCSR()
}

// rowSet is the set of columns a generator has placed in its current row.
// A column belongs to the set when its stamp is the current row's, so
// starting the next row clears the set in O(1).
type rowSet struct {
	stamp []int32 // column -> 1 + the last row that placed it
	row   int32   // 1 + the current row
	size  int
}

func newRowSet(cols int) *rowSet { return &rowSet{stamp: make([]int32, cols)} }

// next starts row i with only its diagonal column placed.
func (s *rowSet) next(i int32) {
	s.row = i + 1
	s.stamp[i] = s.row
	s.size = 1
}

// add places column c and reports whether it was new to the row.
func (s *rowSet) add(c int32) bool {
	if s.stamp[c] == s.row {
		return false
	}
	s.stamp[c] = s.row
	s.size++
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
