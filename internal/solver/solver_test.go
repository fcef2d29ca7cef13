package solver

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nitro/internal/gpusim"
	"nitro/internal/sparse"
)

func dev() *gpusim.Device { return gpusim.Fermi() }

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// residual returns ||b - Ax|| / ||b||.
func residual(a *sparse.CSR, x, b []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(x, ax)
	var rn, bn float64
	for i := range b {
		d := b[i] - ax[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

func TestJacobiApply(t *testing.T) {
	m := sparse.Stencil2D(4, 4)
	j, err := NewJacobi(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rhs(m.Rows, 1)
	z := make([]float64, m.Rows)
	j.Apply(r, z)
	for i := range z {
		if math.Abs(z[i]-r[i]/4) > 1e-12 {
			t.Fatalf("Jacobi apply wrong at %d: %v vs %v", i, z[i], r[i]/4)
		}
	}
	if j.Name() != "Jacobi" {
		t.Error("name")
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	coo := &sparse.COO{Rows: 2, Cols: 2, RowIdx: []int32{0, 1}, ColIdx: []int32{1, 0}, Vals: []float64{1, 1}}
	if _, err := NewJacobi(coo.ToCSR()); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func TestBlockJacobiExactOnBlockDiagonal(t *testing.T) {
	// A block-diagonal matrix is solved exactly by its block-Jacobi
	// preconditioner: z = M^{-1} r must satisfy A z = r.
	n, bs := 24, 4
	rng := rand.New(rand.NewSource(3))
	coo := &sparse.COO{Rows: n, Cols: n}
	for b := 0; b < n; b += bs {
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				v := rng.Float64() - 0.5
				if i == j {
					v += float64(bs) // dominance
				}
				coo.RowIdx = append(coo.RowIdx, int32(b+i))
				coo.ColIdx = append(coo.ColIdx, int32(b+j))
				coo.Vals = append(coo.Vals, v)
			}
		}
	}
	a := coo.ToCSR()
	bj, err := NewBlockJacobi(a, bs)
	if err != nil {
		t.Fatal(err)
	}
	r := rhs(n, 4)
	z := make([]float64, n)
	bj.Apply(r, z)
	az := make([]float64, n)
	a.MulVec(z, az)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-9 {
			t.Fatalf("block-Jacobi not exact on block-diagonal: %v vs %v", az[i], r[i])
		}
	}
}

func TestBlockJacobiRaggedTail(t *testing.T) {
	m := sparse.Stencil2D(5, 5) // 25 rows, not a multiple of 8
	bj, err := NewBlockJacobi(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rhs(25, 5)
	z := make([]float64, 25)
	bj.Apply(r, z) // must not panic
	if bj.Name() != "BJacobi" {
		t.Error("name")
	}
}

func TestFAIFactorIsLowerTriangular(t *testing.T) {
	m := sparse.SPD(sparse.RandomUniform(40, 120, 7), 1.5, 1)
	f, err := NewFAI(m)
	if err != nil {
		t.Fatal(err)
	}
	g := f.G()
	for i := 0; i < g.Rows; i++ {
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			if int(g.ColIdx[p]) > i {
				t.Fatalf("G has an upper-triangular entry at (%d,%d)", i, g.ColIdx[p])
			}
		}
	}
	if f.Name() != "Fainv" {
		t.Error("name")
	}
}

func TestFAIExactOnDiagonalMatrix(t *testing.T) {
	// For a diagonal SPD matrix, FSAI is exact: G^T G = A^{-1}.
	coo := &sparse.COO{Rows: 3, Cols: 3, RowIdx: []int32{0, 1, 2}, ColIdx: []int32{0, 1, 2}, Vals: []float64{4, 9, 16}}
	a := coo.ToCSR()
	f, err := NewFAI(a)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{4, 9, 16}
	z := make([]float64, 3)
	f.Apply(r, z)
	want := []float64{1, 1, 1}
	for i := range z {
		if math.Abs(z[i]-want[i]) > 1e-12 {
			t.Fatalf("FSAI on diagonal: z=%v want %v", z, want)
		}
	}
}

func TestCGConvergesOnSPD(t *testing.T) {
	a := sparse.Stencil2D(20, 20)
	b := rhs(a.Rows, 1)
	for _, mk := range []func() (Preconditioner, error){
		func() (Preconditioner, error) { return NewJacobi(a) },
		func() (Preconditioner, error) { return NewBlockJacobi(a, 8) },
		func() (Preconditioner, error) { return NewFAI(a) },
	} {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := CG(a, b, m, DefaultConfig(), dev())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: CG did not converge (res %v after %d iters)", m.Name(), res.RelResidual, res.Iters)
		}
		if r := residual(a, res.X, b); r > 1e-6 {
			t.Errorf("%s: true residual %v too high", m.Name(), r)
		}
		if res.Seconds <= 0 {
			t.Errorf("%s: non-positive simulated time", m.Name())
		}
	}
}

func TestPreconditionerReducesIterations(t *testing.T) {
	a := sparse.SPD(sparse.BlockClustered(300, 6, 24, 2), 1.05, 3) // barely dominant: slow convergence
	b := rhs(a.Rows, 2)
	jac, _ := NewJacobi(a)
	fai, err := NewFAI(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tol: 1e-8, MaxIters: 2000}
	rj, _ := CG(a, b, jac, cfg, dev())
	rf, _ := CG(a, b, fai, cfg, dev())
	if !rj.Converged || !rf.Converged {
		t.Fatalf("convergence: jacobi=%v fainv=%v", rj.Converged, rf.Converged)
	}
	if rf.Iters > rj.Iters {
		t.Errorf("FSAI (%d iters) should not need more iterations than Jacobi (%d)", rf.Iters, rj.Iters)
	}
}

func TestBiCGStabConvergesOnNonsymmetric(t *testing.T) {
	// Nonsymmetric diagonally dominant system: CG is unreliable, BiCGStab
	// should converge.
	a := sparse.RandomUniform(200, 800, 11)
	b := rhs(a.Rows, 3)
	jac, _ := NewJacobi(a)
	res, err := BiCGStab(a, b, jac, Config{Tol: 1e-8, MaxIters: 1000}, dev())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("BiCGStab did not converge: res %v after %d iters", res.RelResidual, res.Iters)
	}
	if r := residual(a, res.X, b); r > 1e-6 {
		t.Errorf("true residual %v", r)
	}
}

func TestCGFailsOnHardNonsymmetric(t *testing.T) {
	// A strongly skew system: CG assumptions are violated; expect either
	// breakdown or non-convergence within the budget.
	coo := &sparse.COO{Rows: 100, Cols: 100}
	for i := 0; i < 100; i++ {
		coo.RowIdx = append(coo.RowIdx, int32(i))
		coo.ColIdx = append(coo.ColIdx, int32(i))
		coo.Vals = append(coo.Vals, 0.05)
		j := (i + 13) % 100
		coo.RowIdx = append(coo.RowIdx, int32(i))
		coo.ColIdx = append(coo.ColIdx, int32(j))
		coo.Vals = append(coo.Vals, 1.0)
		coo.RowIdx = append(coo.RowIdx, int32(j))
		coo.ColIdx = append(coo.ColIdx, int32(i))
		coo.Vals = append(coo.Vals, -1.0)
	}
	a := coo.ToCSR()
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CG(a, rhs(100, 4), jac, Config{Tol: 1e-10, MaxIters: 200}, dev())
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged && residual(a, res.X, rhs(100, 4)) > 1e-6 {
		t.Error("CG claimed convergence with a bad solution")
	}
	if res.Converged {
		t.Log("note: CG converged on skew system (lucky); main check is no false solution")
	}
	if Cost(res, nil) != math.Inf(1) && !res.Converged {
		t.Error("Cost should be +Inf for non-converged runs")
	}
}

func TestVariantsRunAndLabel(t *testing.T) {
	a := sparse.SPD(sparse.Stencil2D(12, 12), 1.2, 5)
	p, err := NewProblem(a, rhs(a.Rows, 6))
	if err != nil {
		t.Fatal(err)
	}
	names := VariantNames()
	if len(names) != 6 {
		t.Fatalf("want 6 variants, got %v", names)
	}
	if names[0] != "CG-Jacobi" || names[5] != "BiCGStab-Fainv" {
		t.Fatalf("unexpected order: %v", names)
	}
	finite := 0
	for _, v := range Variants() {
		res, err := v.Run(p, dev())
		c := Cost(res, err)
		if !math.IsInf(c, 1) {
			finite++
			if c <= 0 {
				t.Errorf("%s: non-positive cost %v", v.Name, c)
			}
		}
	}
	if finite < 4 {
		t.Errorf("only %d of 6 variants converged on an easy SPD system", finite)
	}
}

func TestProblemValidation(t *testing.T) {
	a := sparse.Stencil2D(3, 3)
	if _, err := NewProblem(nil, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := NewProblem(a, make([]float64, 2)); err == nil {
		t.Error("bad rhs accepted")
	}
	rect := &sparse.COO{Rows: 2, Cols: 3, RowIdx: []int32{0}, ColIdx: []int32{2}, Vals: []float64{1}}
	if _, err := NewProblem(rect.ToCSR(), make([]float64, 2)); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestComputeFeatures(t *testing.T) {
	a := sparse.Stencil2D(5, 5)
	f := ComputeFeatures(a)
	if f.NRows != 25 || f.NNZ != float64(a.NNZ()) {
		t.Errorf("sizes wrong: %+v", f)
	}
	if math.Abs(f.Trace-100) > 1e-9 { // 25 rows x diagonal 4
		t.Errorf("trace = %v, want 100", f.Trace)
	}
	if math.Abs(f.DiagAvg-4) > 1e-9 || f.DiagVar > 1e-9 {
		t.Errorf("diag stats wrong: %+v", f)
	}
	if f.LBw != 5 { // the -nx diagonal
		t.Errorf("LBw = %v, want 5", f.LBw)
	}
	if f.DiagDominance < 0 || f.DiagDominance > 1 {
		t.Errorf("dominance out of range: %v", f.DiagDominance)
	}
	if len(f.Vector()) != len(FeatureNames()) {
		t.Error("Vector/FeatureNames mismatch")
	}
}

func TestZeroRHSTrivial(t *testing.T) {
	a := sparse.Stencil2D(4, 4)
	jac, _ := NewJacobi(a)
	res, err := CG(a, make([]float64, a.Rows), jac, DefaultConfig(), dev())
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs should converge trivially: %v %v", res.Converged, err)
	}
	res2, err := BiCGStab(a, make([]float64, a.Rows), jac, DefaultConfig(), dev())
	if err != nil || !res2.Converged {
		t.Fatalf("zero rhs should converge trivially: %v %v", res2.Converged, err)
	}
}

func TestInvertDense(t *testing.T) {
	m := []float64{2, 1, 1, 3}
	inv, err := invertDense(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6, -0.2, -0.2, 0.4}
	for i := range want {
		if math.Abs(inv[i]-want[i]) > 1e-12 {
			t.Fatalf("inverse wrong: %v", inv)
		}
	}
	if _, err := invertDense([]float64{0, 0, 0, 0}, 2); err == nil {
		t.Error("singular matrix inverted")
	}
}

func TestMoreIterationsCostMore(t *testing.T) {
	a := sparse.SPD(sparse.Stencil2D(16, 16), 1.05, 7)
	b := rhs(a.Rows, 8)
	jac, _ := NewJacobi(a)
	fast, _ := CG(a, b, jac, Config{Tol: 1e-2, MaxIters: 1000}, dev())
	slow, _ := CG(a, b, jac, Config{Tol: 1e-10, MaxIters: 1000}, dev())
	if !(fast.Iters < slow.Iters && fast.Seconds < slow.Seconds) {
		t.Errorf("tighter tolerance should cost more: %d/%v vs %d/%v",
			fast.Iters, fast.Seconds, slow.Iters, slow.Seconds)
	}
}

func TestFAIOnNonSPDFails(t *testing.T) {
	// A matrix with a negative diagonal block should trip the SPD pivot
	// check during FSAI construction.
	coo := &sparse.COO{Rows: 2, Cols: 2, RowIdx: []int32{0, 1}, ColIdx: []int32{0, 1}, Vals: []float64{-1, 2}}
	if _, err := NewFAI(coo.ToCSR()); err == nil {
		t.Error("FSAI accepted a matrix with negative diagonal")
	} else if !strings.Contains(err.Error(), "SPD") && !strings.Contains(err.Error(), "singular") {
		t.Logf("error kind: %v", err)
	}
}

func TestOneByOneSystem(t *testing.T) {
	coo := &sparse.COO{Rows: 1, Cols: 1, RowIdx: []int32{0}, ColIdx: []int32{0}, Vals: []float64{4}}
	a := coo.ToCSR()
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(*sparse.CSR, []float64, Preconditioner, Config, *gpusim.Device) (Result, error){CG, BiCGStab, GMRES} {
		res, err := run(a, []float64{8}, jac, DefaultConfig(), dev())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || math.Abs(res.X[0]-2) > 1e-8 {
			t.Errorf("1x1 solve wrong: converged=%v x=%v", res.Converged, res.X)
		}
	}
}

func TestBlockJacobiBlockLargerThanMatrix(t *testing.T) {
	a := sparse.SPD(sparse.Stencil2D(2, 2), 1.5, 1) // 4x4 matrix, block size 8
	bj, err := NewBlockJacobi(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(4, 2)
	res, err := CG(a, b, bj, DefaultConfig(), dev())
	if err != nil || !res.Converged {
		t.Fatalf("oversized block failed: %v %v", res.Converged, err)
	}
	// A single full-matrix block is a direct solve: one iteration suffices.
	if res.Iters > 2 {
		t.Errorf("full-block Jacobi should converge immediately, took %d", res.Iters)
	}
}

// Property: CG always converges on generated strictly-dominant SPD systems
// within a generous budget, and the solution satisfies the system.
func TestQuickCGConvergesOnSPD(t *testing.T) {
	f := func(seed int64) bool {
		s := seed % 500
		a := sparse.SPD(sparse.RandomUniform(60, 180, s), 1.3, s+1)
		b := rhs(60, s+2)
		jac, err := NewJacobi(a)
		if err != nil {
			return false
		}
		res, err := CG(a, b, jac, Config{Tol: 1e-8, MaxIters: 600}, dev())
		if err != nil || !res.Converged {
			return false
		}
		return residual(a, res.X, b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// chargeIterationReference is the per-iteration charge CG and BiCGStab made
// before they priced an iteration once per solve: every kernel launched,
// charged, finished and recorded on the run, then the host sync.
func chargeIterationReference(run *gpusim.Run, a *sparse.CSR, reuse float64, m Preconditioner, nSpMV, nVecOps int) {
	n := a.Rows
	for s := 0; s < nSpMV; s++ {
		k := run.Launch("spmv", n*run.Device().WarpSize)
		sparse.ChargeCSRSpMV(k, a, reuse)
		run.Done(k)
	}
	kp := run.Launch("precond", n)
	m.Charge(kp)
	run.Done(kp)
	kv := run.Launch("vecops", n)
	kv.GlobalRead(float64(16 * n * nVecOps))
	kv.GlobalWrite(float64(8 * n * nVecOps))
	kv.ComputeDP(float64(2 * n * nVecOps))
	run.Done(kv)
	run.HostSync()
}

// TestKrylovSecondsMatchPerIterationCharge: CG and BiCGStab price one
// iteration per solve and charge it on every iteration, so their Seconds
// must equal, bit for bit, iters calls of chargeIterationReference. Each
// solver runs with every paper preconditioner on a system it solves, on
// the same system capped at three iterations, and on a skew-symmetric
// system that breaks it down at the first iteration (b'Ab = 0 for b all
// ones, with preconditioners built from the identity).
func TestKrylovSecondsMatchPerIterationCharge(t *testing.T) {
	spd := sparse.Stencil2D(8, 8)
	n := 16
	skew := &sparse.COO{Rows: n, Cols: n}
	eye := &sparse.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		eye.RowIdx, eye.ColIdx, eye.Vals = append(eye.RowIdx, int32(i)), append(eye.ColIdx, int32(i)), append(eye.Vals, 1)
		if i+1 < n {
			skew.RowIdx = append(skew.RowIdx, int32(i), int32(i+1))
			skew.ColIdx = append(skew.ColIdx, int32(i+1), int32(i))
			skew.Vals = append(skew.Vals, 1, -1)
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	precs := func(a *sparse.CSR) []Preconditioner {
		j, err := NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := NewBlockJacobi(a, 4)
		if err != nil {
			t.Fatal(err)
		}
		fai, err := NewFAI(a)
		if err != nil {
			t.Fatal(err)
		}
		return []Preconditioner{j, bj, fai}
	}
	cases := []struct {
		name  string
		a     *sparse.CSR
		b     []float64
		precs []Preconditioner
		cfg   Config
		want  func(Result) bool
	}{
		{"converges", spd, rhs(spd.Rows, 1), precs(spd), DefaultConfig(),
			func(r Result) bool { return r.Converged && r.Iters > 1 }},
		{"capped", spd, rhs(spd.Rows, 1), precs(spd), Config{Tol: 1e-8, MaxIters: 3},
			func(r Result) bool { return !r.Converged && r.Iters == 3 }},
		{"breakdown", skew.ToCSR(), ones, precs(eye.ToCSR()), DefaultConfig(),
			func(r Result) bool { return !r.Converged && r.Iters == 1 }},
	}
	solvers := []struct {
		name           string
		solve          func(*sparse.CSR, []float64, Preconditioner, Config, *gpusim.Device) (Result, error)
		nSpMV, nVecOps int
	}{
		{"CG", CG, 1, 6},
		{"BiCGStab", BiCGStab, 2, 10},
	}
	for _, c := range cases {
		for _, s := range solvers {
			for _, m := range c.precs {
				res, err := s.solve(c.a, c.b, m, c.cfg, dev())
				if err != nil {
					t.Fatal(err)
				}
				if !c.want(res) {
					t.Fatalf("%s %s+%s: premise fails: converged %v after %d iterations", c.name, s.name, m.Name(), res.Converged, res.Iters)
				}
				ref := gpusim.NewRun(dev())
				reuse := sparse.XReuse(c.a)
				for i := 0; i < res.Iters; i++ {
					chargeIterationReference(ref, c.a, reuse, m, s.nSpMV, s.nVecOps)
				}
				if math.Float64bits(res.Seconds) != math.Float64bits(ref.Seconds()) {
					t.Errorf("%s %s+%s: Seconds %v, per-iteration charge gives %v", c.name, s.name, m.Name(), res.Seconds, ref.Seconds())
				}
			}
		}
	}
}
