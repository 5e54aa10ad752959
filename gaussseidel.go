package sparsefusion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
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
	a *sparse.CSR
	// state runs the sweep chain (combos.BuildGS) on the executor ladder
	// every Operation runs on. Its instance's Input is the solver-owned
	// right-hand side, GSX0 the chain's input and Output its result.
	state execState
}

// GSOptions configures the solver. The embedded Options apply as they do to
// an Operation: the sweep chain opens through the same cache lookup, tracing
// and executor ladder — packed where the chain packs, which the Gauss-Seidel
// chain does.
type GSOptions struct {
	Options
	// SweepsPerFusion unrolls this many sweeps into one fused schedule
	// (2 loops per sweep). The paper finds 1-3 sweeps (2-6 loops) best;
	// default 3. Values above 8 are clamped to 8 — one schedule tags at most
	// 16 loops — and Solve iterates fused runs either way, so only the barrier
	// amortization changes, never the sweeps performed.
	SweepsPerFusion int
}

// NewGaussSeidel inspects the fused sweep chain for the SPD matrix m. With
// Options.Cache set, inspection runs at most once per fingerprint; the key
// names the chain's ordered kernels, so it never collides with an Operation's.
func NewGaussSeidel(m *Matrix, opts GSOptions) (*GaussSeidel, error) {
	t0 := time.Now()
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
	inst, err := combos.BuildGS(a, sweeps)
	if err != nil {
		return nil, err
	}
	built := time.Since(t0)
	g := &GaussSeidel{a: a}
	g.state = newExecState(inst, opts.Options)
	ids := make([]string, len(inst.Kernels))
	for i, k := range inst.Kernels {
		ids[i] = k.Name()
	}
	fp := opts.fingerprint(m, cache.Params{ChainLen: len(ids), ChainKernels: ids})
	// BuildGS has built every kernel DAG and F.
	if err := g.state.openBuilt(t0, built, opts.Options, fp); err != nil {
		return nil, err
	}
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
	inst := g.state.inst
	x0 := inst.GSX0
	copy(inst.Input, b)
	for i := range x0 {
		x0[i] = 0
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
			copy(out, x0)
			return out, sweeps, exec.Cancelled(ctx)
		}
		if _, err := g.state.run(ctx, nil); err != nil {
			out := make([]float64, n)
			copy(out, x0)
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
		sweeps += g.SweepsPerFusion()
		copy(x0, inst.Output)
		// Residual check.
		for i := 0; i < n; i++ {
			s := 0.0
			for p := g.a.P[i]; p < g.a.P[i+1]; p++ {
				s += g.a.X[p] * x0[g.a.I[p]]
			}
			ax[i] = s
		}
		if sparse.Norm2(sparse.Sub(ax, b))/normB < tol {
			break
		}
	}
	out := make([]float64, n)
	copy(out, x0)
	if res := sparse.Norm2(sparse.Sub(ax, b)) / normB; math.IsNaN(res) || math.IsInf(res, 0) {
		return out, sweeps, fmt.Errorf("sparsefusion: Gauss-Seidel diverged")
	}
	return out, sweeps, nil
}

// SweepsPerFusion is how many sweeps one fused execution performs: the
// requested GSOptions.SweepsPerFusion after defaulting and clamping, read
// from the chain opened with it (two loops per sweep).
func (g *GaussSeidel) SweepsPerFusion() int { return len(g.state.inst.Kernels) / 2 }

// Barriers reports the synchronizations per fused sweep chain.
func (g *GaussSeidel) Barriers() int { return g.state.Barriers() }
