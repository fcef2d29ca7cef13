package sparse

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

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

// toCSRReference is ToCSR as it was before it bucketed entries by row: one
// sort of every entry by (row, col), then a sum of each duplicate run in
// sorted order.
func toCSRReference(m *COO) *CSR {
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

// fuzzCOO turns fuzz bytes into a COO matrix: the first two bytes give its
// shape (at most 64x64), every following triple one entry (row, column,
// value byte b), in any order and with repeats. The value is b/10 as a
// signed byte, so sums of three or more depend on their order, except
// that 0x80 gives -0 and 0x7f and 0x81 give NaNs with distinct payloads,
// whose sum keeps the payload of one operand.
func fuzzCOO(data []byte) *COO {
	rows, cols := 1, 1
	if len(data) >= 2 {
		rows, cols = 1+int(data[0])%64, 1+int(data[1])%64
		data = data[2:]
	}
	coo := &COO{Rows: rows, Cols: cols}
	for ; len(data) >= 3; data = data[3:] {
		v := float64(int8(data[2])) / 10
		switch data[2] {
		case 0x80:
			v = math.Copysign(0, -1)
		case 0x7f:
			v = math.Float64frombits(0x7ff8000000000001)
		case 0x81:
			v = math.Float64frombits(0xfff8000000000002)
		}
		coo.RowIdx = append(coo.RowIdx, int32(int(data[0])%rows))
		coo.ColIdx = append(coo.ColIdx, int32(int(data[1])%cols))
		coo.Vals = append(coo.Vals, v)
	}
	return coo
}

// orderSensitiveRepeats is a 2x2 matrix of 13 entries, each cell repeated
// two to five times. The whole-array sort does not leave the three entries
// of (0, 0) in input order, and summing them in input order gives a
// different value.
var orderSensitiveRepeats = []byte{1, 1, 1, 1, 3, 1, 1, 7, 1, 0, 5, 0, 0, 8, 0, 1, 5, 0, 1, 3, 1, 0, 3, 0,
	0, 2, 1, 1, 8, 0, 0, 4, 1, 0, 6, 1, 1, 9, 1, 1, 4}

// swappedNaNPair is a 4x4 matrix of 13 entries, no cell repeated more than
// twice, whose (0, 0) holds two NaNs with distinct payloads. The
// whole-array sort swaps them, and their sum keeps the first operand's
// payload, so summing them in input order gives different bits.
var swappedNaNPair = []byte{3, 3, 0, 0, 0x7f, 0, 0, 0x81, 3, 2, 2, 3, 1, 1, 1, 1, 7, 0, 1, 9, 2, 3, 6, 3,
	2, 4, 0, 2, 9, 1, 2, 6, 2, 3, 1, 2, 2, 7, 2, 1, 5}

// TestToCSRSumsRepeatsInSortedOrder: ToCSR sums the entries of a cell in
// the order the whole-array sort leaves them, not in input order, on
// matrices where the two give different bits: a cell repeated three times,
// and a cell repeated twice as NaN.
func TestToCSRSumsRepeatsInSortedOrder(t *testing.T) {
	for name, data := range map[string][]byte{"three-fold": orderSensitiveRepeats, "NaN pair": swappedNaNPair} {
		coo := fuzzCOO(data)
		inOrder := 0.0
		for i := range coo.Vals {
			if coo.RowIdx[i] == 0 && coo.ColIdx[i] == 0 {
				inOrder += coo.Vals[i]
			}
		}
		got, want := coo.ToCSR(), toCSRReference(coo)
		if got.ColIdx[0] != 0 || want.ColIdx[0] != 0 {
			t.Fatalf("%s: first stored entry is column %d (reference %d), want (0, 0)", name, got.ColIdx[0], want.ColIdx[0])
		}
		if math.Float64bits(want.Vals[0]) == math.Float64bits(inOrder) {
			t.Fatalf("%s: premise: (0, 0) sums to %x in input order and in sorted order", name, math.Float64bits(inOrder))
		}
		if math.Float64bits(got.Vals[0]) != math.Float64bits(want.Vals[0]) {
			t.Fatalf("%s: (0, 0) = %x, want %x (input order gives %x)", name,
				math.Float64bits(got.Vals[0]), math.Float64bits(want.Vals[0]), math.Float64bits(inOrder))
		}
	}
}

// FuzzToCSR checks ToCSR against toCSRReference bit for bit: the same row
// pointers, columns and value bits, whether a (row, col) occurs once,
// twice (summed in either order unless both are NaN) or three or more
// times (summed in the reference's order), on rows given out of order,
// empty rows, signed zeros and NaNs.
func FuzzToCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 2, 1, 5, 0, 3, 7, 2, 0, 9, 0, 2, 0x80}) // unsorted rows, row 1 and 3 empty
	f.Add([]byte{1, 1, 0, 0, 0x80, 0, 0, 0x80, 1, 1, 0x80})    // -0 alone and twice
	f.Add([]byte{4, 4, 1, 2, 3, 0, 0, 1, 1, 2, 250, 3, 3, 9})  // a pair in row 1
	f.Add([]byte{2, 2, 0, 1, 1, 0, 1, 2, 0, 1, 3, 2, 2, 5})    // a triple at (0, 1)
	f.Add([]byte{7, 7, 5, 5, 11, 5, 5, 13, 5, 5, 0x80, 5, 5, 17, 1, 0, 2, 1, 0, 0x80})
	f.Add(orderSensitiveRepeats)
	f.Add(swappedNaNPair)
	f.Fuzz(func(t *testing.T, data []byte) {
		coo := fuzzCOO(data)
		got, want := coo.ToCSR(), toCSRReference(coo)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("structure: RowPtr %v ColIdx %v, want %v and %v", got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
		}
		if len(got.Vals) != len(want.Vals) {
			t.Fatalf("%d values, want %d", len(got.Vals), len(want.Vals))
		}
		for i := range want.Vals {
			if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
				t.Fatalf("value %d = %v (%#x), want %v (%#x)", i, got.Vals[i], math.Float64bits(got.Vals[i]),
					want.Vals[i], math.Float64bits(want.Vals[i]))
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
