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

// This file is the chain-composition facade: a whole CG/PCG iteration —
// SpMV, the dot products, the vector updates and (preconditioned) both
// triangular solves — composed by the inspector into ONE fused schedule, so
// a solver iteration pays one barrier per s-partition of one schedule instead
// of a full barrier sequence per kernel pair plus host-side joins between
// every vector operation. The reductions that classically force a return to
// the host (alpha = rz/p·Ap, beta = rz'/rz) stay inside the schedule: the dot
// kernels materialize per-block partials and every consumer block re-sums
// them in fixed index order (see internal/kernels/vector.go), which keeps the
// arithmetic bit-identical at every worker count on every executor. The
// chain itself is combos.CGChain.

// FusedCGOptions configures the chain-fused conjugate-gradient solver.
type FusedCGOptions struct {
	Options
	// Tol is the relative-residual convergence threshold (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10*n).
	MaxIter int
	// Precondition fuses the IC0 preconditioner's forward and backward
	// triangular solves into the same schedule, making it an 8-loop chain.
	Precondition bool
}

// FusedCG is an inspected chain-fused CG/PCG solver: NewFusedCG composes the
// per-iteration kernel chain and inspects it once (or not at all on a cache
// hit); Solve then runs the fused schedule once per solver iteration, with
// only the convergence check and the scalar handover (rz) on the host.
//
// A FusedCG serves one Solve at a time. It reports executor Health, Mode and
// Barriers like an Operation.
type FusedCG struct {
	execState
	fp cache.Key

	chainLen int
	n        int
	tol      float64
	maxIter  int
	precond  bool

	// v is the solver state wired into the chain's kernels: the CG vectors,
	// the per-block reduction partials and the host-owned scalar cell
	// (previous r·z) the update kernels read.
	v *combos.CGVectors

	// Setup kernels for the initial z = (LL')^{-1} r (nil unpreconditioned)
	// and the chain's own dot kernel, reused to seed the first rz.
	fwd, bwd kernels.Kernel
	dotK     kernels.Kernel
}

// NewFusedCG composes and inspects the fused solver chain for the SPD matrix
// m: 6 loops unpreconditioned (SpMV, p·Ap partials, the x and r updates, the
// r·r partials, the direction update), 8 loops preconditioned (plus the
// forward solve L\r and the backward solve L'\y between the residual update
// and the reductions). With Options.Cache set, inspection runs at most once
// per fingerprint; chain fingerprints are keyed by the ordered kernel ids and
// block size, so they never collide with pairwise entries.
func NewFusedCG(m *Matrix, opts FusedCGOptions) (*FusedCG, error) {
	t0 := time.Now()
	a := m.csr
	n := a.Rows
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparsefusion: CG needs a square matrix")
	}
	if n == 0 {
		return nil, fmt.Errorf("sparsefusion: empty matrix")
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10 * n
	}

	f := &FusedCG{
		n: n, tol: opts.Tol, maxIter: opts.MaxIter, precond: opts.Precondition,
		v: combos.NewCGVectors(n, combos.CGBlock, opts.Precondition),
	}
	spec, err := combos.CGChain(a, f.v, opts.Precondition, combos.CGBlock)
	if err != nil {
		return nil, fmt.Errorf("sparsefusion: %w", err)
	}
	// The set-up before the first pass runs the preconditioner's solves and
	// the kernel writing the scalar handover's partials: L4-L6 preconditioned,
	// L4 (r·r) unpreconditioned.
	if opts.Precondition {
		f.fwd, f.bwd, f.dotK = spec.Links[4].K, spec.Links[5].K, spec.Links[6].K
	} else {
		f.dotK = spec.Links[4].K
	}
	tb := time.Now()
	chain, err := combos.BuildChain(spec)
	if err != nil {
		return nil, err
	}
	built := time.Since(tb)
	if !chain.Fused() {
		return nil, fmt.Errorf("sparsefusion: internal error: solver chain did not compose into one group")
	}
	f.chainLen = chain.NumKernels()
	inst := chain.Groups[0]
	inst.Output = f.v.X

	f.execState = newExecState(inst, opts.Options)
	// The key names the chain's ordered kernels and the vector block size,
	// which shapes the blocked DAGs and every inter-reduction F.
	f.fp = opts.fingerprint(m, cache.Params{
		ChainLen:     chain.NumKernels(),
		ChainKernels: append(chain.KernelIDs(), fmt.Sprintf("block=%d", combos.CGBlock)),
	})
	// BuildChain has already built every kernel DAG (its Check needs them).
	if err := f.openBuilt(t0, built, opts.Options, f.fp); err != nil {
		return nil, err
	}
	return f, nil
}

// Fingerprint returns the chain's content address in hex.
func (f *FusedCG) Fingerprint() string { return f.fp.String() }

// ChainLength is the number of kernels composed into the fused schedule
// (8 preconditioned, 6 unpreconditioned).
func (f *FusedCG) ChainLength() int { return f.chainLen }

// Preconditioned reports whether the chain embeds the IC0 solves.
func (f *FusedCG) Preconditioned() bool { return f.precond }

// Solve runs chain-fused CG on b and returns the solution, the iterations
// performed, and the accumulated executor report (Time/Barriers/BarrierWait
// summed over all fused runs — Barriers/iterations is the paper's
// barriers-per-solver-iteration). Results are bit-identical at every worker
// count and on every executor rung: each vector element is written by exactly
// one iteration with a fixed interior order, and reductions are re-summed in
// index order everywhere. The fused runs of one solve execute on one worker
// set, whose workers spin between them and exit when the solve returns.
func (f *FusedCG) Solve(b []float64) ([]float64, int, Report, error) {
	return f.solve(nil, b, nil)
}

// SolveContext is Solve under cooperative cancellation: ctx is checked
// between solver iterations and observed inside each fused run at
// s-partition granularity, so a cancelled solve returns a *CancelledError
// within one s-partition round. Every iteration completed before the
// cancellation computed exactly what an uncancelled solve would have — x
// holds the bit-identical partial trajectory — and the solver is immediately
// reusable.
func (f *FusedCG) SolveContext(ctx context.Context, b []float64) ([]float64, int, Report, error) {
	return f.solve(ctx, b, nil)
}

// SolveOn is Solve under a server's admission control: each fused iteration
// waits for one of the server's worker sets, so at most MaxConcurrent fused
// executions run at once across everything sharing the server, and every
// iteration is observed by the server's metrics (spf_barriers_total counts
// the k-times-fewer barriers this solver is the point of).
func (f *FusedCG) SolveOn(b []float64, sv *Server) ([]float64, int, Report, error) {
	return f.solve(nil, b, sv)
}

// SolveOnContext is SolveOn under a deadline: ctx bounds each iteration's
// admission wait (ErrServerOverloaded / ErrDeadlineExceeded) and the fused
// runs themselves (*CancelledError), with SolveContext's bit-identity
// guarantees.
func (f *FusedCG) SolveOnContext(ctx context.Context, b []float64, sv *Server) ([]float64, int, Report, error) {
	return f.solve(ctx, b, sv)
}

func (f *FusedCG) solve(ctx context.Context, b []float64, sv *Server) ([]float64, int, Report, error) {
	var total Report
	n := f.n
	if len(b) != n {
		return nil, 0, total, fmt.Errorf("sparsefusion: rhs length %d, want %d", len(b), n)
	}
	diag := func(it int, err error) error {
		var brk *kernels.BreakdownError
		if errors.As(err, &brk) {
			return fmt.Errorf("sparsefusion: fused CG broke down at iteration %d (%s, row %d); is the matrix SPD?: %w", it, brk.Kernel, brk.Row, err)
		}
		return err
	}

	// Setup: x = 0, r = b, z = (LL')^{-1} r (or r), p = z, rz = r·z. The
	// initial solves and dot run sequentially — they are one-time setup; the
	// per-iteration chain is what fusion amortizes.
	for i := range f.v.X {
		f.v.X[i] = 0
	}
	copy(f.v.R, b)
	if f.precond {
		if err := kernels.RunSeq(f.fwd); err != nil {
			return nil, 0, total, diag(0, err)
		}
		if err := kernels.RunSeq(f.bwd); err != nil {
			return nil, 0, total, diag(0, err)
		}
		copy(f.v.P, f.v.Z)
	} else {
		copy(f.v.P, f.v.R)
	}
	if err := kernels.RunSeq(f.dotK); err != nil {
		return nil, 0, total, diag(0, err)
	}
	rz := sumInOrder(f.partRZIfPrecond())
	f.v.RZ[0] = rz
	normB := sparse.Norm2(b)
	if normB == 0 {
		return append([]float64(nil), f.v.X...), 0, total, nil
	}
	// The chain passes below follow each other within microseconds: run them
	// all on one worker set, kept spinning between them, and close it when
	// the solve ends. Served solves run on the server's worker sets, which
	// are not held; on the sequential rung there is nothing to keep.
	var pl *exec.Pool
	if sv == nil && f.Mode() != ModeSequential {
		pl = exec.NewPool(f.prog.MaxWidth, f.watchdog)
		defer pl.Close()
		defer pl.Hold()()
	}

	for it := 1; it <= f.maxIter; it++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, it - 1, total, exec.Cancelled(ctx)
		}
		var rep Report
		var err error
		if sv == nil {
			rep, err = f.run(ctx, pl)
		} else {
			rep, err = f.RunOnContext(ctx, sv)
		}
		total.Time += rep.Time
		total.Barriers += rep.Barriers
		total.BarrierWait += rep.BarrierWait
		if err != nil {
			return nil, it, total, diag(it, err)
		}
		rr := sumInOrder(f.v.PartRR)
		if math.Sqrt(rr)/normB < f.tol {
			return append([]float64(nil), f.v.X...), it, total, nil
		}
		rz = sumInOrder(f.partRZIfPrecond())
		if rz == 0 || math.IsNaN(rz) {
			return nil, it, total, fmt.Errorf("sparsefusion: fused CG broke down at iteration %d (r·z = %v); is the matrix SPD?", it, rz)
		}
		f.v.RZ[0] = rz
	}
	return append([]float64(nil), f.v.X...), f.maxIter, total, nil
}

// partRZIfPrecond is the scalar-handover partial array: r·z preconditioned,
// r·r otherwise (z = r).
func (f *FusedCG) partRZIfPrecond() []float64 {
	if f.precond {
		return f.v.PartRZ
	}
	return f.v.PartRR
}

// sumInOrder reduces partials in ascending index order — the one order every
// consumer block and the host agree on, so the scalar is bit-identical
// everywhere it is derived.
func sumInOrder(part []float64) float64 {
	s := 0.0
	for _, v := range part {
		s += v
	}
	return s
}
