package solver

import (
	"errors"
	"math"

	"nitro/internal/gpusim"
	"nitro/internal/sparse"
)

// gmresRestart is the Krylov subspace size of the restarted GMRES variant
// (the usual GMRES(30) default of solver toolkits like CULA Sparse).
const gmresRestart = 30

// GMRES solves A x = b with left-preconditioned restarted GMRES(30). It is
// the extension solver beyond the paper's CG/BiCGStab pair: robust on
// nonsymmetric and mildly indefinite systems at the price of growing
// per-iteration orthogonalization work.
func GMRES(a *sparse.CSR, b []float64, m Preconditioner, cfg Config, dev *gpusim.Device) (Result, error) {
	n := a.Rows
	if len(b) != n {
		return Result{}, errors.New("solver: rhs dimension mismatch")
	}
	run := gpusim.NewRun(dev)
	reuse := sparse.XReuse(a)

	x := make([]float64, n)
	res := Result{X: x}
	bnorm := norm2(b)
	if bnorm == 0 {
		res.Converged = true
		res.Seconds = run.Seconds()
		return res, nil
	}

	ax := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	w := make([]float64, n)

	total := 0
	for total < cfg.MaxIters {
		// Restart cycle.
		a.MulVec(x, ax)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		m.Apply(r, z)
		beta := norm2(z)
		if beta == 0 {
			break
		}
		dim := gmresRestart
		if rem := cfg.MaxIters - total; rem < dim {
			dim = rem
		}
		v := make([][]float64, 1, dim+1)
		v[0] = make([]float64, n)
		for i := range z {
			v[0][i] = z[i] / beta
		}
		h := make([][]float64, dim+1)
		for i := range h {
			h[i] = make([]float64, dim)
		}
		cs := make([]float64, dim)
		sn := make([]float64, dim)
		g := make([]float64, dim+1)
		g[0] = beta

		j := 0
		for ; j < dim && total < cfg.MaxIters; j++ {
			total++
			res.Iters = total
			a.MulVec(v[j], ax)
			m.Apply(ax, w)
			chargeIteration(run, priceIteration(run, a, reuse, m, 1, 2*(j+2)))
			// Modified Gram-Schmidt.
			for i := 0; i <= j; i++ {
				h[i][j] = dot(w, v[i])
				axpy(-h[i][j], v[i], w)
			}
			h[j+1][j] = norm2(w)
			if h[j+1][j] > 1e-300 {
				vj := make([]float64, n)
				for i := range w {
					vj[i] = w[i] / h[j+1][j]
				}
				v = append(v, vj)
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t
			}
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom < 1e-300 {
				j++
				break
			}
			cs[j] = h[j][j] / denom
			sn[j] = h[j+1][j] / denom
			h[j][j] = denom
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			if math.Abs(g[j+1])/bnorm <= cfg.Tol/10 {
				j++
				break
			}
			if h[j+1][j] == 0 && len(v) == j+1 {
				j++
				break // happy breakdown
			}
		}
		// Solve the triangular system and update x.
		y := make([]float64, j)
		for i := j - 1; i >= 0; i-- {
			sum := g[i]
			for k := i + 1; k < j; k++ {
				sum -= h[i][k] * y[k]
			}
			if h[i][i] == 0 {
				break
			}
			y[i] = sum / h[i][i]
		}
		for i := 0; i < j && i < len(v); i++ {
			axpy(y[i], v[i], x)
		}
		// True residual check.
		a.MulVec(x, ax)
		var rn float64
		for i := range b {
			d := b[i] - ax[i]
			rn += d * d
		}
		res.RelResidual = math.Sqrt(rn) / bnorm
		if res.RelResidual <= cfg.Tol {
			res.Converged = true
			break
		}
		if math.IsNaN(res.RelResidual) || res.RelResidual > 1e8 {
			break
		}
		if j == 0 {
			break
		}
	}
	res.Seconds = run.Seconds()
	return res, nil
}

// ExtendedVariants returns the paper's six (solver, preconditioner)
// combinations plus GMRES(30) with the same three preconditioners — nine in
// total, for the richer-variant-space extension experiment.
func ExtendedVariants() []Variant {
	out := Variants()
	type precond struct {
		name  string
		build func(a *sparse.CSR) (Preconditioner, error)
	}
	preconds := []precond{
		{"Jacobi", func(a *sparse.CSR) (Preconditioner, error) { return NewJacobi(a) }},
		{"BJacobi", func(a *sparse.CSR) (Preconditioner, error) { return NewBlockJacobi(a, blockSize) }},
		{"Fainv", func(a *sparse.CSR) (Preconditioner, error) { return NewFAI(a) }},
	}
	for _, pc := range preconds {
		pc := pc
		out = append(out, Variant{
			Name: "GMRES-" + pc.name,
			Run: func(p *Problem, dev *gpusim.Device) (Result, error) {
				m, err := pc.build(p.A)
				if err != nil {
					return Result{}, err
				}
				return GMRES(p.A, p.B, m, p.Cfg, dev)
			},
		})
	}
	return out
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
