package sparsefusion

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// CGOptions configures the conjugate-gradient solver. The embedded Options
// reach the IC0 preconditioner only (see NewIC0Preconditioner for which of
// them apply); unpreconditioned CG has no fused schedule to tune.
type CGOptions struct {
	Options
	// Tol is the relative-residual convergence threshold (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10*n).
	MaxIter int
	// Precondition applies the fused IC0 preconditioner each iteration —
	// the paper's motivating use case of repeatedly executed preconditioner
	// kernels inside a Krylov solver.
	Precondition bool
}

// SolveCG solves A*x = b for the SPD matrix with (optionally IC0-
// preconditioned) conjugate gradient, returning the solution and the number
// of iterations performed.
func (m *Matrix) SolveCG(b []float64, opts CGOptions) ([]float64, int, error) {
	return m.SolveCGContext(nil, b, opts)
}

// SolveCGContext is SolveCG under cooperative cancellation: ctx is checked
// between solver iterations, so a cancelled solve returns a *CancelledError
// instead of iterating to MaxIter. Iterations completed before the
// cancellation are exactly what an uncancelled solve would have computed.
// A nil ctx means no bound.
func (m *Matrix) SolveCGContext(ctx context.Context, b []float64, opts CGOptions) ([]float64, int, error) {
	n := m.csr.Rows
	if m.csr.Rows != m.csr.Cols {
		return nil, 0, fmt.Errorf("sparsefusion: CG needs a square matrix")
	}
	if len(b) != n {
		return nil, 0, fmt.Errorf("sparsefusion: rhs length %d, want %d", len(b), n)
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10 * n
	}
	var pre *IC0Preconditioner
	if opts.Precondition {
		p, err := NewIC0Preconditioner(m, opts.Options)
		if err != nil {
			return nil, 0, err
		}
		pre = p
	}
	apply := func(r, z []float64) ([]float64, error) {
		if pre == nil {
			if z == nil {
				z = make([]float64, n)
			}
			copy(z, r)
			return z, nil
		}
		return pre.Apply(r, z)
	}

	// cgDiag turns a preconditioner failure into the solver's diagnostic:
	// a numerical breakdown in the fused solves means the Krylov iteration
	// cannot continue on this matrix, which the message says outright.
	cgDiag := func(it int, err error) error {
		var brk *kernels.BreakdownError
		if errors.As(err, &brk) {
			return fmt.Errorf("sparsefusion: CG broke down at iteration %d (%s, row %d); is the matrix SPD?: %w", it, brk.Kernel, brk.Row, err)
		}
		return err
	}

	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z, err := apply(r, nil)
	if err != nil {
		return nil, 0, cgDiag(0, err)
	}
	p := append([]float64(nil), z...)
	rz := sparse.Dot(r, z)
	normB := sparse.Norm2(b)
	if normB == 0 {
		return x, 0, nil
	}
	for it := 1; it <= opts.MaxIter; it++ {
		if ctx != nil && ctx.Err() != nil {
			return x, it - 1, exec.Cancelled(ctx)
		}
		ap, err := m.MulVec(p)
		if err != nil {
			return nil, 0, err
		}
		pap := sparse.Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return x, it, fmt.Errorf("sparsefusion: CG broke down (p'Ap = %v); is the matrix SPD?", pap)
		}
		alpha := rz / pap
		sparse.Axpy(alpha, p, x)
		sparse.Axpy(-alpha, ap, r)
		if sparse.Norm2(r)/normB < opts.Tol {
			return x, it, nil
		}
		z, err = apply(r, z)
		if err != nil {
			return nil, 0, cgDiag(it, err)
		}
		rzNew := sparse.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, opts.MaxIter, nil
}
