package sparsefusion

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// GaussSeidel iteratively solves A*x = b for SPD A using fused Gauss-Seidel
// sweeps (paper section 4.3): each sweep computes x <- L \ (b - U*x) where
// L = tril(A) and U = striu(A); unrolling several sweeps exposes 2*s loops
// that sparse fusion schedules as one fused partitioning, amortizing
// barriers and reusing L and U across sweeps.
type GaussSeidel struct {
	a    *sparse.CSR
	b    []float64 // solver-owned right-hand side, shared with the kernels
	x0   []float64 // sweep-chain input, shared with the first SpMV
	xEnd []float64 // sweep-chain output
	sch  *core.Schedule
	run  *exec.Runner // the compiled sweep chain
	th   int
	// SweepsPerFusion is how many sweeps one fused execution performs: the
	// requested value after defaulting and clamping (GSOptions).
	SweepsPerFusion int
}

// GSOptions configures the solver. Of the embedded Options, Threads, the LBC
// parameters, SpinBudget and Watchdog apply; the solver inspects privately —
// Cache and Tracer are not consulted — and runs on the compiled (unpacked)
// rung.
type GSOptions struct {
	Options
	// SweepsPerFusion unrolls this many sweeps into one fused schedule
	// (2 loops per sweep). The paper finds 1-3 sweeps (2-6 loops) best;
	// default 3. Values above 8 are clamped to 8 — one schedule tags at most
	// 16 loops — and Solve iterates fused runs either way, so only the barrier
	// amortization changes, never the sweeps performed.
	SweepsPerFusion int
}

// NewGaussSeidel inspects the fused sweep chain for the SPD matrix m.
func NewGaussSeidel(m *Matrix, opts GSOptions) (*GaussSeidel, error) {
	a := m.csr
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparsefusion: Gauss-Seidel needs a square matrix")
	}
	sweeps := opts.SweepsPerFusion
	if sweeps < 1 {
		sweeps = 3
	}
	if sweeps > kernels.MaxLoops/2 {
		sweeps = kernels.MaxLoops / 2
	}
	n := a.Rows
	g := &GaussSeidel{
		a: a, th: opts.threads(), SweepsPerFusion: sweeps,
		b:  make([]float64, n),
		x0: make([]float64, n),
	}
	l := a.Lower()
	negU := a.StrictUpper()
	for i := range negU.X {
		negU.X[i] = -negU.X[i]
	}
	loops := &core.Loops{}
	var ks []kernels.Kernel
	x := g.x0
	for s := 0; s < sweeps; s++ {
		t := make([]float64, n)
		xNext := make([]float64, n)
		kmv := kernels.NewSpMVPlusCSR(negU, x, g.b, t)
		ktr := kernels.NewSpTRSVCSR(l, t, xNext)
		ks = append(ks, kmv, ktr)
		loops.G = append(loops.G, kmv.DAG(), ktr.DAG())
		if s > 0 {
			loops.F = append(loops.F, core.FPattern(negU))
		}
		loops.F = append(loops.F, core.FDiagonal(n))
		x = xNext
	}
	g.xEnd = x
	reuse := core.ReuseRatioChain(ks)
	sch, err := core.ICO(loops, core.Params{Threads: g.th, ReuseRatio: reuse, LBC: opts.lbc()})
	if err != nil {
		return nil, err
	}
	g.sch = sch
	if g.run, err = exec.CompileFused(ks, sch); err != nil {
		return nil, err
	}
	g.run.Configure(exec.Config{SpinBudget: opts.SpinBudget, Watchdog: opts.Watchdog})
	return g, nil
}

// Solve iterates fused sweep chains from the zero vector until the relative
// residual ||b - A*x|| / ||b|| drops below tol or maxSweeps sweeps have run.
// It returns the solution and the number of sweeps performed.
func (g *GaussSeidel) Solve(b []float64, tol float64, maxSweeps int) ([]float64, int, error) {
	return g.SolveContext(nil, b, tol, maxSweeps)
}

// SolveContext is Solve under cooperative cancellation: ctx is checked
// between sweep chains and observed inside each fused run at s-partition
// granularity. A cancelled solve returns the sweeps completed so far (a
// bit-identical prefix of an uncancelled solve) alongside a *CancelledError.
// A nil ctx means no bound.
func (g *GaussSeidel) SolveContext(ctx context.Context, b []float64, tol float64, maxSweeps int) ([]float64, int, error) {
	n := g.a.Rows
	if len(b) != n {
		return nil, 0, fmt.Errorf("sparsefusion: rhs length %d, want %d", len(b), n)
	}
	copy(g.b, b)
	for i := range g.x0 {
		g.x0[i] = 0
	}
	normB := sparse.Norm2(b)
	if normB == 0 {
		return make([]float64, n), 0, nil
	}
	ax := make([]float64, n)
	sweeps := 0
	for sweeps < maxSweeps {
		if ctx != nil && ctx.Err() != nil {
			out := make([]float64, n)
			copy(out, g.x0)
			return out, sweeps, exec.Cancelled(ctx)
		}
		if _, err := g.run.RunContext(orBackground(ctx), g.th); err != nil {
			out := make([]float64, n)
			copy(out, g.x0)
			// A cancellation mid-chain leaves x0 at the last completed chain
			// (the fused run's output commits only via the copy below); pass
			// the typed error through untranslated.
			var c *CancelledError
			if errors.As(err, &c) {
				return out, sweeps, err
			}
			// A zero diagonal in L stops the sweep with a typed breakdown;
			// translate it into the solver's vocabulary while keeping the
			// kernel error reachable through errors.As.
			var brk *kernels.BreakdownError
			if errors.As(err, &brk) {
				return out, sweeps, fmt.Errorf("sparsefusion: Gauss-Seidel sweep broke down (%s, row %d): %w", brk.Kernel, brk.Row, err)
			}
			return out, sweeps, fmt.Errorf("sparsefusion: Gauss-Seidel sweep failed: %w", err)
		}
		sweeps += g.SweepsPerFusion
		copy(g.x0, g.xEnd)
		// Residual check.
		for i := 0; i < n; i++ {
			s := 0.0
			for p := g.a.P[i]; p < g.a.P[i+1]; p++ {
				s += g.a.X[p] * g.x0[g.a.I[p]]
			}
			ax[i] = s
		}
		if sparse.Norm2(sparse.Sub(ax, b))/normB < tol {
			break
		}
	}
	out := make([]float64, n)
	copy(out, g.x0)
	if res := sparse.Norm2(sparse.Sub(ax, b)) / normB; math.IsNaN(res) || math.IsInf(res, 0) {
		return out, sweeps, fmt.Errorf("sparsefusion: Gauss-Seidel diverged")
	}
	return out, sweeps, nil
}

// Barriers reports the synchronizations per fused sweep chain.
func (g *GaussSeidel) Barriers() int { return g.sch.NumSPartitions() }
