package sparse

import "testing"

// FuzzSpMVCost turns the fuzz bytes into a small COO matrix: the first two
// bytes give its shape (at most 64x64), every following triple one entry
// (row, column, a small integer value), duplicates allowed. ToCSR must
// yield a valid matrix, and on it every variant's cost model must match
// its Run as checkCostMatchesRun requires.
func FuzzSpMVCost(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 7, 0, 0, 250})        // 1x1, a duplicate entry
	f.Add([]byte{3, 3, 0, 0, 1, 1, 1, 2, 3, 3, 3}) // diagonal of a 4x4
	f.Add([]byte{7, 63, 0, 0, 1, 0, 9, 1, 0, 40, 1, 0, 63, 1, 5, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols := 1, 1
		if len(data) >= 2 {
			rows, cols = 1+int(data[0])%64, 1+int(data[1])%64
			data = data[2:]
		}
		coo := &COO{Rows: rows, Cols: cols}
		for ; len(data) >= 3; data = data[3:] {
			coo.RowIdx = append(coo.RowIdx, int32(int(data[0])%rows))
			coo.ColIdx = append(coo.ColIdx, int32(int(data[1])%cols))
			coo.Vals = append(coo.Vals, float64(int8(data[2])))
		}
		m := coo.ToCSR()
		if err := m.Validate(); err != nil {
			t.Fatalf("ToCSR: %v", err)
		}
		x := make([]float64, cols)
		for j := range x {
			x[j] = float64(j%7 - 3)
		}
		p, err := NewProblem(m, x)
		if err != nil {
			t.Fatal(err)
		}
		checkCostMatchesRun(t, p)
	})
}
