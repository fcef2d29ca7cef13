package sparse

import (
	"errors"
	"fmt"
	"math"

	"nitro/internal/gpusim"
)

// Conversion budgets: beyond these the DIA/ELL representations explode in
// memory and the variants are structurally infeasible (their constraints
// veto them, as in the paper's __dia_cutoff example).
const (
	MaxDIADiagonals = 2048
	MaxELLWidth     = 2048
	// DIAFillCutoff and ELLFillCutoff veto the padded formats when the
	// wasted storage exceeds the cutoff multiple of nnz.
	DIAFillCutoff = 20.0
	ELLFillCutoff = 12.0
)

// Problem is one SpMV instance: a CSR matrix and an input vector, with the
// derived formats, features and structure counts cached so repeated variant
// executions (as in exhaustive search) do not pay them repeatedly.
type Problem struct {
	A *CSR
	X []float64

	feats     *Features
	ndiags    int
	haveDiags bool
	reuse     float64
	haveReus  bool
	haveDIA   bool
	dia       *DIA
	diaErr    error
	haveELL   bool
	ell       *ELL
	ellErr    error
}

// NewProblem validates dimensions and wraps the matrix/vector pair.
func NewProblem(a *CSR, x []float64) (*Problem, error) {
	if a == nil {
		return nil, errors.New("sparse: nil matrix")
	}
	if len(x) != a.Cols {
		return nil, fmt.Errorf("sparse: x has %d entries, matrix has %d columns", len(x), a.Cols)
	}
	return &Problem{A: a, X: x}, nil
}

// Features returns the cached selection features.
func (p *Problem) Features() Features {
	if p.feats == nil {
		f := featuresOf(p.A, p.diagonals())
		p.feats = &f
	}
	return *p.feats
}

// diagonals returns the cached count of distinct occupied diagonals: the
// DIA-Fill feature's numerator and the DIA variants' stored-diagonal count.
func (p *Problem) diagonals() int {
	if !p.haveDiags {
		p.ndiags = CountDiagonals(p.A)
		p.haveDiags = true
	}
	return p.ndiags
}

// Reuse returns the cached x-vector reuse factor.
func (p *Problem) Reuse() float64 {
	if !p.haveReus {
		p.reuse = XReuse(p.A)
		p.haveReus = true
	}
	return p.reuse
}

// DIA returns the cached DIA conversion (or its failure).
func (p *Problem) DIA() (*DIA, error) {
	if !p.haveDIA {
		p.dia, p.diaErr = p.A.ToDIA(MaxDIADiagonals)
		p.haveDIA = true
	}
	return p.dia, p.diaErr
}

// ELL returns the cached ELL conversion (or its failure).
func (p *Problem) ELL() (*ELL, error) {
	if !p.haveELL {
		p.ell, p.ellErr = p.A.ToELL(MaxELLWidth)
		p.haveELL = true
	}
	return p.ell, p.ellErr
}

// Result is a variant execution: the computed product and the simulated GPU
// time. Variants return the time as their optimization value, matching the
// paper's convention that operator() returns a double-precision cost.
type Result struct {
	Y       []float64
	Seconds float64
}

// Variant is one SpMV code variant: a runner, its cost model and an optional
// constraint (false vetoes the variant for this input). Run computes the
// product in the variant's storage format and reports Cost's time; Cost
// makes the same simulated-GPU charges from the matrix structure alone
// (distinct diagonals for DIA, the longest row for ELL), so a labeller can
// price a variant without building its format or multiplying. Both fail
// exactly when the format would exceed its conversion budget.
type Variant struct {
	Name       string
	Run        func(p *Problem, dev *gpusim.Device) (Result, error)
	Cost       func(p *Problem, dev *gpusim.Device) (float64, error)
	Constraint func(p *Problem) bool
}

// Variants returns the paper's six SpMV code variants in a fixed order:
// CSR-Vec, DIA, ELL, CSR-Tx, DIA-Tx, ELL-Tx.
func Variants() []Variant {
	diaOK := func(p *Problem) bool {
		return p.Features().DIAFill <= DIAFillCutoff && p.diagonals() <= MaxDIADiagonals
	}
	ellOK := func(p *Problem) bool {
		return p.Features().ELLFill <= ELLFillCutoff && p.A.maxRowLen() <= MaxELLWidth
	}
	return []Variant{
		{Name: "CSR-Vec", Run: CSRVec, Cost: csrVecCost},
		{Name: "DIA", Run: DIAKernel, Cost: diaCost, Constraint: diaOK},
		{Name: "ELL", Run: ELLKernel, Cost: ellCost, Constraint: ellOK},
		{Name: "CSR-Tx", Run: CSRVecTx, Cost: csrVecTxCost},
		{Name: "DIA-Tx", Run: DIATx, Cost: diaTxCost, Constraint: diaOK},
		{Name: "ELL-Tx", Run: ELLTx, Cost: ellTxCost, Constraint: ellOK},
	}
}

// VariantNames returns the names in Variants order.
func VariantNames() []string {
	vs := Variants()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

// runVariant executes one variant: it prices the variant with cost and, when
// the variant is feasible, computes y = A*x with mul, the reference kernel of
// the variant's storage format.
func runVariant(p *Problem, dev *gpusim.Device,
	cost func(*Problem, *gpusim.Device) (float64, error),
	mul func(p *Problem, y []float64) error) (Result, error) {
	secs, err := cost(p, dev)
	if err != nil {
		return Result{}, err
	}
	y := make([]float64, p.A.Rows)
	if err := mul(p, y); err != nil {
		return Result{}, err
	}
	return Result{Y: y, Seconds: secs}, nil
}

func mulCSR(p *Problem, y []float64) error {
	p.A.MulVec(p.X, y)
	return nil
}

func mulDIA(p *Problem, y []float64) error {
	d, err := p.DIA()
	if err != nil {
		return err
	}
	d.MulVec(p.X, y)
	return nil
}

func mulELL(p *Problem, y []float64) error {
	e, err := p.ELL()
	if err != nil {
		return err
	}
	e.MulVec(p.X, y)
	return nil
}

// ChargeCSRSpMV charges one CSR-vector SpMV (including the x gather through
// the global path) to an existing kernel; iterative solvers use it to account
// their per-iteration matrix-vector cost.
func ChargeCSRSpMV(k *gpusim.Kernel, m *CSR, reuse float64) {
	csrTraffic(m, k)
	k.Gather(m.NNZ(), 8, float64(8*m.Cols), reuse)
}

// csrTraffic charges the CSR index/value streams shared by both CSR variants
// and the idle lanes of the warp-per-row decomposition.
func csrTraffic(m *CSR, k *gpusim.Kernel) {
	k.GlobalRead(float64(8 * m.Rows))        // row pointers (two per row)
	k.GlobalRead(float64(4 * m.NNZ()))       // column indices
	k.GlobalRead(float64(8 * m.NNZ()))       // values
	k.GlobalWrite(float64(8 * m.Rows))       // y
	k.ComputeDP(float64(2*m.NNZ() + m.Rows)) // FMA per entry + reduction tail

	// Warp-per-row: lanes beyond the row length idle in every instruction,
	// so rows shorter than the warp waste the whole pipeline, not just ALU
	// slots. The floor keeps the penalty at the ~4x that csr_vector shows
	// against csr_scalar on one-entry rows.
	padded := 0
	maxLen, sum := 0, 0
	for i := 0; i < m.Rows; i++ {
		l := m.RowLen(i)
		padded += (l + 31) / 32 * 32
		if l == 0 {
			padded += 32
		}
		if l > maxLen {
			maxLen = l
		}
		sum += l
	}
	if padded > 0 {
		eff := float64(sum) / float64(padded)
		if eff < 0.25 {
			eff = 0.25
		}
		k.Throughput(eff)
	}
	if m.Rows > 0 && sum > 0 {
		k.Imbalance(float64(maxLen), float64(sum)/float64(m.Rows))
	}
}

// CSRVec is the CUSP csr_vector kernel: one warp per row, x gathered through
// the plain global-memory path.
func CSRVec(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, csrVecCost, mulCSR)
}

// csrVecCost prices CSRVec.
func csrVecCost(p *Problem, dev *gpusim.Device) (float64, error) {
	run := gpusim.NewRun(dev)
	k := run.Launch("spmv_csr_vector", p.A.Rows*dev.WarpSize)
	csrTraffic(p.A, k)
	k.Gather(p.A.NNZ(), 8, float64(8*p.A.Cols), p.Reuse())
	run.Done(k)
	return run.Seconds(), nil
}

// CSRVecTx is CSRVec with the input vector bound to the texture cache.
func CSRVecTx(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, csrVecTxCost, mulCSR)
}

// csrVecTxCost prices CSRVecTx.
func csrVecTxCost(p *Problem, dev *gpusim.Device) (float64, error) {
	run := gpusim.NewRun(dev)
	k := run.Launch("spmv_csr_vector_tex", p.A.Rows*dev.WarpSize)
	csrTraffic(p.A, k)
	k.TextureGather(p.A.NNZ(), 8, float64(8*p.A.Cols), p.Reuse())
	run.Done(k)
	return run.Seconds(), nil
}

// diaDiagonals returns the stored-diagonal count of the problem's DIA form
// without building it, failing as ToDIA does past MaxDIADiagonals.
func diaDiagonals(p *Problem) (int, error) {
	ndiags := p.diagonals()
	if ndiags > MaxDIADiagonals {
		return 0, fmt.Errorf("%w: > %d", ErrTooManyDiagonals, MaxDIADiagonals)
	}
	return ndiags, nil
}

// diaTraffic charges the diagonal-format streams shared by both DIA variants.
func diaTraffic(rows, ndiags int, k *gpusim.Kernel) {
	cells := rows * ndiags
	k.GlobalRead(float64(8 * cells))  // diagonal data (padded)
	k.GlobalRead(float64(4 * ndiags)) // offsets
	k.GlobalWrite(float64(8 * rows))  // y
	k.ComputeDP(float64(2 * cells))   // FMA per stored cell
	k.Latency(float64(ndiags) * 2)    // per-diagonal loop overhead
}

// DIAKernel is the CUSP dia kernel: one thread per row marching over the
// stored diagonals; x is read with unit stride per diagonal (coalesced).
func DIAKernel(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, diaCost, mulDIA)
}

// diaCost prices DIAKernel.
func diaCost(p *Problem, dev *gpusim.Device) (float64, error) {
	ndiags, err := diaDiagonals(p)
	if err != nil {
		return 0, err
	}
	rows := p.A.Rows
	run := gpusim.NewRun(dev)
	k := run.Launch("spmv_dia", rows)
	diaTraffic(rows, ndiags, k)
	k.GlobalRead(float64(8 * rows * ndiags)) // x, coalesced per diagonal
	run.Done(k)
	return run.Seconds(), nil
}

// DIATx is DIAKernel with x read through the texture cache; sequential
// texture fetches have near-perfect spatial locality, modelled as a high
// effective reuse (4 elements per cache line times the per-element reuse
// across diagonals).
func DIATx(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, diaTxCost, mulDIA)
}

// diaTxCost prices DIATx.
func diaTxCost(p *Problem, dev *gpusim.Device) (float64, error) {
	ndiags, err := diaDiagonals(p)
	if err != nil {
		return 0, err
	}
	rows := p.A.Rows
	run := gpusim.NewRun(dev)
	k := run.Launch("spmv_dia_tex", rows)
	diaTraffic(rows, ndiags, k)
	k.TextureGather(rows*ndiags, 8, float64(8*p.A.Cols), 4*math.Max(float64(ndiags), 1))
	run.Done(k)
	return run.Seconds(), nil
}

// ellWidth returns the padded row width of the problem's ELL form without
// building it, failing as ToELL does past MaxELLWidth.
func ellWidth(p *Problem) (int, error) {
	width := p.A.maxRowLen()
	if width > MaxELLWidth {
		return 0, fmt.Errorf("%w: %d > %d", ErrRowTooLong, width, MaxELLWidth)
	}
	return width, nil
}

// ellTraffic charges the ELL streams shared by both ELL variants.
func ellTraffic(m *CSR, width int, k *gpusim.Kernel) {
	cells := m.Rows * width
	k.GlobalRead(float64(4 * cells)) // column indices (padded, coalesced)
	k.GlobalRead(float64(8 * cells)) // values (padded, coalesced)
	k.GlobalWrite(float64(8 * m.Rows))
	k.ComputeDP(float64(2 * cells))
	// Padding slots branch away: active fraction is nnz over padded cells.
	if cells > 0 {
		k.Divergence(float64(m.NNZ()) / float64(cells))
	}
}

// ELLKernel is the CUSP ell kernel: one thread per row over the padded
// column-major arrays, x gathered through the global path.
func ELLKernel(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, ellCost, mulELL)
}

// ellCost prices ELLKernel.
func ellCost(p *Problem, dev *gpusim.Device) (float64, error) {
	width, err := ellWidth(p)
	if err != nil {
		return 0, err
	}
	run := gpusim.NewRun(dev)
	k := run.Launch("spmv_ell", p.A.Rows)
	ellTraffic(p.A, width, k)
	k.Gather(p.A.NNZ(), 8, float64(8*p.A.Cols), p.Reuse())
	run.Done(k)
	return run.Seconds(), nil
}

// ELLTx is ELLKernel with texture-cached x gathers.
func ELLTx(p *Problem, dev *gpusim.Device) (Result, error) {
	return runVariant(p, dev, ellTxCost, mulELL)
}

// ellTxCost prices ELLTx.
func ellTxCost(p *Problem, dev *gpusim.Device) (float64, error) {
	width, err := ellWidth(p)
	if err != nil {
		return 0, err
	}
	run := gpusim.NewRun(dev)
	k := run.Launch("spmv_ell_tex", p.A.Rows)
	ellTraffic(p.A, width, k)
	k.TextureGather(p.A.NNZ(), 8, float64(8*p.A.Cols), p.Reuse())
	run.Done(k)
	return run.Seconds(), nil
}
