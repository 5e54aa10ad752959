package sparsefusion

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"sparsefusion/internal/sparse"
)

func TestOperationAllCombinations(t *testing.T) {
	m := RandomSPD(400, 5, 1)
	for _, c := range []Combination{TrsvTrsv, DscalIlu0, TrsvMv, Ic0Trsv, Ilu0Trsv, DscalIc0, MvMv} {
		op, err := NewOperation(c, m, Options{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		rep, err := op.Run()
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if rep.Time <= 0 || rep.GFlops <= 0 {
			t.Fatalf("%s: empty report %+v", c, rep)
		}
		out1 := op.Output()
		rep2, err := op.Run()
		if err != nil {
			t.Fatalf("%s: replay: %v", c, err)
		}
		out2 := op.Output()
		if sparse.RelErr(out1, out2) > 1e-12 {
			t.Fatalf("%s: replay changed the result", c)
		}
		if rep2.Barriers != rep.Barriers {
			t.Fatalf("%s: barrier count changed across runs", c)
		}
	}
}

func TestOperationSolvesTriangular(t *testing.T) {
	// TrsvTrsv computes z = L \ (L \ y): verify against applying L twice.
	m := Laplacian2D(20)
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Rows()
	// Build y = L*(L*ones) so z must be ones.
	l := m.csr.Lower()
	tmp := make([]float64, n)
	y := make([]float64, n)
	ones := sparse.Ones(n)
	for i := 0; i < n; i++ {
		for p := l.P[i]; p < l.P[i+1]; p++ {
			tmp[i] += l.X[p] * ones[l.I[p]]
		}
	}
	for i := 0; i < n; i++ {
		for p := l.P[i]; p < l.P[i+1]; p++ {
			y[i] += l.X[p] * tmp[l.I[p]]
		}
	}
	if err := op.SetInput(y); err != nil {
		t.Fatal(err)
	}
	op.Run()
	z := op.Output()
	if sparse.RelErr(z, ones) > 1e-8 {
		t.Fatalf("L\\(L\\(L*L*1)) != 1: err %v", sparse.RelErr(z, ones))
	}
}

func TestOperationSetInputErrors(t *testing.T) {
	m := RandomSPD(50, 4, 2)
	op, err := NewOperation(DscalIlu0, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.SetInput(make([]float64, 50)); err == nil {
		t.Fatal("factor-only combination accepted an input vector")
	}
	op2, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := op2.SetInput(make([]float64, 7)); err == nil {
		t.Fatal("wrong-length input accepted")
	}
}

func TestOperationReuseRatioAndPacking(t *testing.T) {
	m := RandomSPD(300, 5, 3)
	op1, _ := NewOperation(TrsvTrsv, m, Options{Threads: 4})
	if op1.ReuseRatio() < 1 || !op1.Interleaved() {
		t.Fatalf("TrsvTrsv: reuse %v interleaved %v, want >=1/true", op1.ReuseRatio(), op1.Interleaved())
	}
	op3, _ := NewOperation(TrsvMv, m, Options{Threads: 4})
	if op3.ReuseRatio() >= 1 || op3.Interleaved() {
		t.Fatalf("TrsvMv: reuse %v interleaved %v, want <1/false", op3.ReuseRatio(), op3.Interleaved())
	}
}

func TestMatrixConstructionAndQueries(t *testing.T) {
	m, err := NewMatrix(2, 2, []Entry{{0, 0, 1}, {1, 1, 2}, {0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 2 || m.NNZ() != 3 {
		t.Fatal("matrix queries wrong")
	}
	if _, err := NewMatrix(1, 1, []Entry{{5, 5, 1}}); err == nil {
		t.Fatal("out-of-bounds entry accepted")
	}
}

func TestMatrixMarketRoundTripViaFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	if err := os.WriteFile(path, []byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 5.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatal("load failed")
	}
	if _, err := LoadMatrixMarket(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReorderRoundTrip(t *testing.T) {
	m := PowerLawSPD(200, 3, 4)
	rm, perm, err := m.Reorder()
	if err != nil {
		t.Fatal(err)
	}
	if rm.NNZ() != m.NNZ() {
		t.Fatal("reorder changed nnz")
	}
	x := sparse.RandomVec(200, 5)
	back := UnpermuteVector(PermuteVector(x, perm), perm)
	if sparse.MaxAbsDiff(back, x) != 0 {
		t.Fatal("permute helpers not inverse")
	}
	// A reordered solve must give the same answer in original coordinates.
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.SetInput(x); err != nil {
		t.Fatal(err)
	}
	op.Run()
	want := op.Output()

	rop, err := NewOperation(TrsvTrsv, rm, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rop.SetInput(PermuteVector(x, perm)); err != nil {
		t.Fatal(err)
	}
	rop.Run()
	got := UnpermuteVector(rop.Output(), perm)
	// Triangular structure changes under reordering (tril of PAP' is not
	// P tril(A) P'), so only sanity-check magnitudes, not equality.
	if len(got) != len(want) {
		t.Fatal("length mismatch")
	}
	for _, v := range got {
		if math.IsNaN(v) {
			t.Fatal("reordered solve produced NaN")
		}
	}
}

func TestGaussSeidelSolves(t *testing.T) {
	m := Laplacian2D(25)
	gs, err := NewGaussSeidel(m, GSOptions{Options: Options{Threads: 4}, SweepsPerFusion: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Rows()
	xTrue := sparse.RandomVec(n, 6)
	b := make([]float64, n)
	a := m.csr
	for i := 0; i < n; i++ {
		for p := a.P[i]; p < a.P[i+1]; p++ {
			b[i] += a.X[p] * xTrue[a.I[p]]
		}
	}
	x, sweeps, err := gs.Solve(b, 1e-6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if sweeps == 0 {
		t.Fatal("no sweeps performed")
	}
	ax := make([]float64, n)
	for i := 0; i < n; i++ {
		for p := a.P[i]; p < a.P[i+1]; p++ {
			ax[i] += a.X[p] * x[a.I[p]]
		}
	}
	if res := sparse.Norm2(sparse.Sub(ax, b)) / sparse.Norm2(b); res > 1e-6 {
		t.Fatalf("GS residual %v after %d sweeps", res, sweeps)
	}
}

func TestGaussSeidelEdgeCases(t *testing.T) {
	m := Laplacian2D(5)
	gs, err := NewGaussSeidel(m, GSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero rhs: zero solution without iterating.
	x, sweeps, err := gs.Solve(make([]float64, m.Rows()), 1e-10, 100)
	if err != nil || sweeps != 0 {
		t.Fatalf("zero rhs: sweeps %d err %v", sweeps, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
	if _, _, err := gs.Solve(make([]float64, 3), 1e-10, 10); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
	if gs.Barriers() <= 0 {
		t.Fatal("no barriers reported")
	}
	rect, _ := NewMatrix(2, 3, nil)
	if _, err := NewGaussSeidel(rect, GSOptions{}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

// TestGaussSeidelClampsSweepsPerFusion: one fused schedule tags at most 16
// loops, so a request for 12 sweeps per fusion runs 8; Solve iterates fused
// runs, so the sweeps performed — and, the kernels being gathers, their bits —
// are those of any other unrolling.
func TestGaussSeidelClampsSweepsPerFusion(t *testing.T) {
	m := mustReorder(t, Laplacian2D(20))
	b := testInput(m.Rows())
	solve := func(perFusion, effective int) []float64 {
		gs, err := NewGaussSeidel(m, GSOptions{Options: Options{Threads: 2}, SweepsPerFusion: perFusion})
		if err != nil {
			t.Fatal(err)
		}
		if got := gs.SweepsPerFusion(); got != effective {
			t.Fatalf("SweepsPerFusion %d reports %d, want %d", perFusion, got, effective)
		}
		x, sweeps, err := gs.Solve(b, 0, 24)
		if err != nil || sweeps != 24 {
			t.Fatalf("SweepsPerFusion %d: %d sweeps, err %v", perFusion, sweeps, err)
		}
		return x
	}
	if !bitsSame(solve(12, 8), solve(4, 4)) {
		t.Fatal("24 sweeps unrolled 8 at a time differ from 24 sweeps unrolled 4 at a time")
	}
}

func TestDefaultOptions(t *testing.T) {
	var o Options
	if o.threads() < 1 {
		t.Fatal("default threads invalid")
	}
	if Combination(TrsvMv).String() != "TRSV-MV" {
		t.Fatal("combination label wrong")
	}
}
