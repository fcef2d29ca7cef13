package solver

import (
	"errors"
	"math"

	"nitro/internal/gpusim"
	"nitro/internal/sparse"
)

// Config controls an iterative solve.
type Config struct {
	// Tol is the relative-residual convergence threshold ||r||/||b||.
	Tol float64
	// MaxIters bounds the iteration count; exceeding it is reported as
	// non-convergence (the paper's "variant did not converge").
	MaxIters int
}

// DefaultConfig returns the evaluation defaults (1e-8, 400).
func DefaultConfig() Config { return Config{Tol: 1e-8, MaxIters: 400} }

// Result is the outcome of one (solver, preconditioner) variant execution.
type Result struct {
	X           []float64
	Iters       int
	Converged   bool
	RelResidual float64
	// Seconds is the simulated GPU time of the whole solve (iterations x
	// per-iteration kernel cost). Non-converged runs still report the time
	// they burned before giving up.
	Seconds float64
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// axpy computes y += alpha*x.
func axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// priceIteration prices one Krylov iteration: nSpMV matrix products, one
// preconditioner application, nVecOps streaming vector kernels (dots and
// axpys, fused two per kernel) and the host-visible reduction the dot
// products need (a pipeline bubble). It returns each charge in
// nanoseconds, in the order chargeIteration adds them to run. Every kernel
// is priced from the matrix's and the preconditioner's structure alone, so
// a solve whose iterations launch the same kernels prices one and charges
// it on every iteration.
func priceIteration(run *gpusim.Run, a *sparse.CSR, reuse float64, m Preconditioner, nSpMV, nVecOps int) []float64 {
	n := a.Rows
	ks := run.Launch("spmv", n*run.Device().WarpSize)
	sparse.ChargeCSRSpMV(ks, a, reuse)
	spmv := ks.Finish()
	kp := run.Launch("precond", n)
	m.Charge(kp)
	kv := run.Launch("vecops", n)
	kv.GlobalRead(float64(16 * n * nVecOps))
	kv.GlobalWrite(float64(8 * n * nVecOps))
	kv.ComputeDP(float64(2 * n * nVecOps))
	ns := make([]float64, 0, nSpMV+3)
	for s := 0; s < nSpMV; s++ {
		ns = append(ns, spmv)
	}
	return append(ns, kp.Finish(), kv.Finish(), run.Device().HostSyncNs())
}

// chargeIteration adds one priced iteration to run.
func chargeIteration(run *gpusim.Run, iter []float64) {
	for _, ns := range iter {
		run.AddNs(ns)
	}
}

// CG solves A x = b for symmetric positive-definite A with preconditioned
// conjugate gradients. On indefinite or non-symmetric systems the iteration
// breaks down or stagnates, which is reported as non-convergence — exactly
// the failure mode the paper's model learns to dodge.
func CG(a *sparse.CSR, b []float64, m Preconditioner, cfg Config, dev *gpusim.Device) (Result, error) {
	n := a.Rows
	if len(b) != n {
		return Result{}, errors.New("solver: rhs dimension mismatch")
	}
	run := gpusim.NewRun(dev)
	reuse := sparse.XReuse(a)

	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	m.Apply(r, z)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)

	bnorm := norm2(b)
	if bnorm == 0 {
		return Result{X: x, Converged: true, Seconds: run.Seconds()}, nil
	}
	rz := dot(r, z)
	res := Result{X: x}
	// Every iteration launches the same kernels: price them once.
	iter := priceIteration(run, a, reuse, m, 1, 6)
	for it := 1; it <= cfg.MaxIters; it++ {
		a.MulVec(p, ap)
		pap := dot(p, ap)
		chargeIteration(run, iter)
		res.Iters = it
		if pap <= 0 || math.IsNaN(pap) {
			break // breakdown: A not SPD along this direction
		}
		alpha := rz / pap
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
		rn := norm2(r)
		res.RelResidual = rn / bnorm
		if res.RelResidual <= cfg.Tol {
			res.Converged = true
			break
		}
		if math.IsNaN(rn) || math.IsInf(rn, 0) || res.RelResidual > 1e8 {
			break // divergence
		}
		m.Apply(r, z)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Seconds = run.Seconds()
	return res, nil
}

// BiCGStab solves A x = b for general (possibly non-symmetric) A with the
// preconditioned stabilized bi-conjugate gradient method.
func BiCGStab(a *sparse.CSR, b []float64, m Preconditioner, cfg Config, dev *gpusim.Device) (Result, error) {
	n := a.Rows
	if len(b) != n {
		return Result{}, errors.New("solver: rhs dimension mismatch")
	}
	run := gpusim.NewRun(dev)
	reuse := sparse.XReuse(a)

	x := make([]float64, n)
	r := append([]float64(nil), b...)
	rhat := append([]float64(nil), r...)
	v := make([]float64, n)
	p := make([]float64, n)
	phat := make([]float64, n)
	s := make([]float64, n)
	shat := make([]float64, n)
	t := make([]float64, n)

	bnorm := norm2(b)
	if bnorm == 0 {
		return Result{X: x, Converged: true, Seconds: run.Seconds()}, nil
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	res := Result{X: x}
	// Every iteration launches the same kernels: price them once.
	iter := priceIteration(run, a, reuse, m, 2, 10)
	for it := 1; it <= cfg.MaxIters; it++ {
		res.Iters = it
		rhoNew := dot(rhat, r)
		chargeIteration(run, iter)
		if math.Abs(rhoNew) < 1e-300 {
			break // breakdown
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		m.Apply(p, phat)
		a.MulVec(phat, v)
		den := dot(rhat, v)
		if math.Abs(den) < 1e-300 {
			break
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sn := norm2(s); sn/bnorm <= cfg.Tol {
			axpy(alpha, phat, x)
			res.RelResidual = sn / bnorm
			res.Converged = true
			break
		}
		m.Apply(s, shat)
		a.MulVec(shat, t)
		tt := dot(t, t)
		if tt < 1e-300 {
			break
		}
		omega = dot(t, s) / tt
		if math.Abs(omega) < 1e-300 {
			break
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		rn := norm2(r)
		res.RelResidual = rn / bnorm
		if res.RelResidual <= cfg.Tol {
			res.Converged = true
			break
		}
		if math.IsNaN(rn) || math.IsInf(rn, 0) || res.RelResidual > 1e8 {
			break
		}
	}
	res.Seconds = run.Seconds()
	return res, nil
}
