package sparsefusion

import (
	"math/rand"
	"testing"
	"time"

	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

func TestIC0PreconditionerMatchesSequentialSolves(t *testing.T) {
	m := RandomSPD(500, 5, 31)
	pre, err := NewIC0Preconditioner(m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: factor, then two sequential solves.
	lc := m.csr.Lower().ToCSC()
	kernels.RunSeq(kernels.NewSpIC0CSC(lc))
	r := sparse.RandomVec(500, 7)
	y := make([]float64, 500)
	kernels.RunSeq(kernels.NewSpTRSVCSC(lc, r, y))
	want := make([]float64, 500)
	kernels.RunSeq(kernels.NewSpTRSVTransCSC(lc, y, want))

	for rep := 0; rep < 3; rep++ {
		z, err := pre.Apply(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sparse.RelErr(z, want) > 1e-9 {
			t.Fatalf("rep %d: fused apply diverges by %v", rep, sparse.RelErr(z, want))
		}
	}
	if pre.Barriers() <= 0 {
		t.Fatal("no barriers reported")
	}
}

func TestIC0PreconditionerIsSPDOperator(t *testing.T) {
	// (LL')^{-1} must be symmetric positive definite: check x'M^{-1}x > 0
	// and symmetry via random probes.
	m := Laplacian2D(15)
	pre, err := NewIC0Preconditioner(m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := m.Rows()
	for trial := 0; trial < 5; trial++ {
		u, v := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i], v[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		mu, err := pre.Apply(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		mv, err := pre.Apply(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.Dot(u, mu); d <= 0 {
			t.Fatalf("not positive definite: u'Mu = %v", d)
		}
		// Symmetry: v'(M u) == u'(M v).
		l, r := sparse.Dot(v, mu), sparse.Dot(u, mv)
		if diff := l - r; diff > 1e-8*(1+absf(l)) || diff < -1e-8*(1+absf(l)) {
			t.Fatalf("not symmetric: %v vs %v", l, r)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestIC0PreconditionerErrors(t *testing.T) {
	rect, _ := NewMatrix(2, 3, nil)
	if _, err := NewIC0Preconditioner(rect, Options{}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	m := Laplacian2D(5)
	pre, err := NewIC0Preconditioner(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Apply(make([]float64, 3), nil); err == nil {
		t.Fatal("wrong-length apply accepted")
	}
	// Caller-provided output slice is used.
	out := make([]float64, m.Rows())
	if _, err := pre.Apply(make([]float64, m.Rows()), out); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	m := RandomSPD(100, 4, 9)
	x := sparse.RandomVec(100, 2)
	y, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 100)
	kernels.RunSeq(kernels.NewSpMVCSR(m.csr, x, want))
	if sparse.RelErr(y, want) > 1e-12 {
		t.Fatal("MulVec diverges from kernel SpMV")
	}
	if _, err := m.MulVec(make([]float64, 7)); err == nil {
		t.Fatal("wrong-length input accepted")
	}
}

// TestPrivateSolversApplyExecConfig: the executor tuning in the Options of
// NewGaussSeidel (which opens through the shared path) and
// NewIC0Preconditioner (which inspects privately) must reach the runner they
// build — and zero values must leave its defaults alone.
func TestPrivateSolversApplyExecConfig(t *testing.T) {
	m := Laplacian2D(12)
	for _, tc := range []struct {
		opts Options
		want exec.Config
	}{
		{Options{Threads: 2, Watchdog: 3 * time.Second}, exec.Config{Watchdog: 3 * time.Second}},
		{Options{Threads: 2}, exec.Config{}},
	} {
		g, err := NewGaussSeidel(m, GSOptions{Options: tc.opts})
		if err != nil {
			t.Fatal(err)
		}
		if got := g.state.runner.Config(); got != tc.want {
			t.Errorf("GaussSeidel runner config = %+v, want %+v", got, tc.want)
		}
		p, err := NewIC0Preconditioner(m, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.run.Config(); got != tc.want {
			t.Errorf("IC0Preconditioner runner config = %+v, want %+v", got, tc.want)
		}
	}
}
