package sparsefusion

import (
	"errors"
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// IC0Preconditioner applies an incomplete-Cholesky preconditioner
// z = (L*L')^{-1} r with the two triangular solves fused into one schedule:
// the forward solve y = L \ r and the backward solve z = L' \ y. The
// backward solve's dependency on the forward solve is an anti-diagonal F
// (column j of the backward pass needs the forward pass's column j), a
// non-diagonal inter-DAG matrix that goes beyond the paper's Table 1 —
// the "arbitrary sparse operations" direction its conclusion points at.
type IC0Preconditioner struct {
	n   int
	r   []float64    // input slot shared with the forward kernel
	z   []float64    // output of the backward kernel
	run *exec.Runner // the compiled apply
	th  int
}

// NewIC0Preconditioner factors tril(A) with IC0 and inspects the fused
// forward+backward apply. Of opts, Threads and Watchdog apply; the
// preconditioner inspects privately — Cache and Tracer are not consulted —
// and runs on the compiled (unpacked) rung.
//
// It is the one solver that does not open through the shared path
// (execState.open): Matrix.SolveCG builds it inside every call, and that solve
// is the unfused base the fused PCG chain is benchmarked against, so moving it
// onto the cache and the packed rung would change what the comparison
// measures.
func NewIC0Preconditioner(m *Matrix, opts Options) (*IC0Preconditioner, error) {
	a := m.csr
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparsefusion: preconditioner needs a square matrix")
	}
	lc := a.Lower().ToCSC()
	// Factor once at setup (the Ic0Trsv combination covers fusing the
	// factorization itself; here the factor is reused across many applies).
	// A breakdown here means the matrix is not SPD on this pattern — a
	// caller-input problem, reported as such rather than as NaN solves later.
	if err := kernels.RunSeq(kernels.NewSpIC0CSC(lc)); err != nil {
		return nil, fmt.Errorf("sparsefusion: IC0 factorization failed: %w", err)
	}

	n := a.Rows
	p := &IC0Preconditioner{
		n: n, th: opts.threads(),
		r: make([]float64, n),
		z: make([]float64, n),
	}
	y := make([]float64, n)
	fwd := kernels.NewSpTRSVCSC(lc, p.r, y)
	bwd := kernels.NewSpTRSVTransCSC(lc, y, p.z)
	ks := []kernels.Kernel{fwd, bwd}

	// F: backward iteration it (column j = n-1-it) reads y[j], produced by
	// forward iteration j — the anti-diagonal handover shared with the chain
	// builders.
	f := core.FAntiDiagonal(n)
	loops := &core.Loops{G: []*dag.Graph{fwd.DAG(), bwd.DAG()}, F: []*sparse.CSR{f}}
	reuse := core.ReuseRatioChain(ks)
	sched, err := core.ICO(loops, core.Params{Threads: p.th, ReuseRatio: reuse})
	if err != nil {
		return nil, err
	}
	if err := loops.Validate(sched); err != nil {
		return nil, fmt.Errorf("sparsefusion: internal schedule error: %w", err)
	}
	prog, err := core.CompileSchedule(sched, len(ks))
	if err != nil {
		return nil, err
	}
	p.run = exec.NewRunner(ks, prog)
	p.run.Configure(exec.Config{Watchdog: opts.Watchdog})
	return p, nil
}

// Apply computes z = (L*L')^{-1} r into z (allocated when nil) and returns
// it. r is not modified. A numerical breakdown in the fused solves (a zero
// diagonal in the factor) surfaces as an error that unwraps to the
// *kernels.BreakdownError naming the kernel and row.
func (p *IC0Preconditioner) Apply(r, z []float64) ([]float64, error) {
	if len(r) != p.n {
		return nil, fmt.Errorf("sparsefusion: apply length %d, want %d", len(r), p.n)
	}
	copy(p.r, r)
	if _, err := p.run.Run(p.th); err != nil {
		var b *kernels.BreakdownError
		if errors.As(err, &b) {
			return nil, fmt.Errorf("sparsefusion: preconditioner apply broke down (%s, row %d): %w", b.Kernel, b.Row, err)
		}
		return nil, fmt.Errorf("sparsefusion: preconditioner apply failed: %w", err)
	}
	if z == nil {
		z = make([]float64, p.n)
	}
	copy(z, p.z)
	return z, nil
}

// Barriers reports the synchronizations per apply.
func (p *IC0Preconditioner) Barriers() int { return p.run.Program().NumSPartitions() }

// MulVec computes A*x with a row-parallel sparse matrix-vector product and
// returns the result, a convenience for building iterative methods around
// the fused operations.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.csr.Cols {
		return nil, fmt.Errorf("sparsefusion: mulvec length %d, want %d", len(x), m.csr.Cols)
	}
	y := make([]float64, m.csr.Rows)
	a := m.csr
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.P[i]; p < a.P[i+1]; p++ {
			s += a.X[p] * x[a.I[p]]
		}
		y[i] = s
	}
	return y, nil
}
