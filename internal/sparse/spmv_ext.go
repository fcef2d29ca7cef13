package sparse

import (
	"math"

	"nitro/internal/gpusim"
)

// This file holds the extension variant set beyond the paper's six: the
// CUSP COO (flat segmented-reduction) kernel and the HYB (ELL+COO) kernel.
// They are not part of the Fig. 4 reproduction, but DESIGN.md's extension
// experiment uses them to show Nitro absorbing a richer variant space
// without any framework change.

// cooCharge accounts a COO flat kernel over nnz entries.
func cooCharge(p *Problem, k *gpusim.Kernel, nnz int) {
	k.GlobalRead(float64(16 * nnz)) // row idx + col idx + value
	k.Gather(nnz, 8, float64(8*p.A.Cols), p.Reuse())
	// Segmented reduction: carry propagation between warps plus scattered
	// partial-sum writes, but perfectly balanced regardless of row lengths.
	k.ComputeDP(float64(4 * nnz))
	k.Gather(nnz/32+1, 8, float64(8*p.A.Rows), 1) // per-warp carry writes
}

// COOFlat is the CUSP coo_flat kernel: one thread per nonzero with a
// segmented reduction, completely insensitive to row-length distribution.
func COOFlat(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, cooCost, func(p *Problem, y []float64) error {
		p.A.ToCOO().MulVec(p.X, y)
		return nil
	})
}

// cooCost prices COOFlat.
func cooCost(p *Problem, dev *gpusim.Device) (float64, error) {
	run := gpusim.NewRun(dev)
	nnz := p.A.NNZ()
	k := run.Launch("spmv_coo_flat", nnz)
	cooCharge(p, k, nnz)
	run.Done(k)
	return run.Seconds(), nil
}

// HYBKernel is the CUSP hyb kernel: the ELL part runs the regular coalesced
// kernel, the COO overflow runs the flat kernel. The HYB conversion is not
// cached: it is cheap next to a variant execution.
func HYBKernel(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, hybCost, func(p *Problem, y []float64) error {
		p.A.ToHYB(0).MulVec(p.X, y)
		return nil
	})
}

// hybCost prices HYBKernel from the row lengths ToHYB(0) would split at
// TypicalWidth: each row stores min(len, width) entries in the ELL part and
// the rest in the COO part.
func hybCost(p *Problem, dev *gpusim.Device) (float64, error) {
	m := p.A
	width := TypicalWidth(m)
	pad, overflow := 0, 0
	for i := 0; i < m.Rows; i++ {
		if l := m.RowLen(i); l < width {
			pad += width - l
		} else {
			overflow += l - width
		}
	}
	run := gpusim.NewRun(dev)

	ke := run.Launch("spmv_hyb_ell", m.Rows)
	cells := m.Rows * width
	ke.GlobalRead(float64(12 * cells))
	ke.GlobalWrite(float64(8 * m.Rows))
	ke.ComputeDP(float64(2 * cells))
	stored := cells
	if pad > 0 {
		stored -= pad
		if cells > 0 {
			ke.Divergence(float64(stored) / float64(cells))
		}
	}
	ke.Gather(stored, 8, float64(8*m.Cols), p.Reuse())
	run.Done(ke)

	if overflow > 0 {
		kc := run.Launch("spmv_hyb_coo", overflow)
		cooCharge(p, kc, overflow)
		run.Done(kc)
	}
	return run.Seconds(), nil
}

// ExtendedVariants returns the paper's six variants plus the COO and HYB
// extension kernels (eight in total).
func ExtendedVariants() []Variant {
	return append(Variants(),
		Variant{Name: "COO", Run: COOFlat, Cost: cooCost},
		Variant{Name: "HYB", Run: HYBKernel, Cost: hybCost},
	)
}

// ExtendedVariantNames returns the names in ExtendedVariants order.
func ExtendedVariantNames() []string {
	vs := ExtendedVariants()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

// BestExtended prices every feasible extended variant and returns the
// winning name, for diagnostics.
func BestExtended(p *Problem, dev *gpusim.Device) (string, float64) {
	best, bestT := "", math.Inf(1)
	for _, v := range ExtendedVariants() {
		if v.Constraint != nil && !v.Constraint(p) {
			continue
		}
		secs, err := v.Cost(p, dev)
		if err != nil {
			continue
		}
		if secs < bestT {
			best, bestT = v.Name, secs
		}
	}
	return best, bestT
}
