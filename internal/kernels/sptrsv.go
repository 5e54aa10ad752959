package kernels

import (
	"sparsefusion/internal/atomicf"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// SpTRSVCSR solves L*X = B for a lower-triangular CSR matrix L, one row per
// iteration (figure 2a of the paper). Iteration i reads X at the columns of
// row i and owns X[i]; the dependency DAG is the pattern of L.
type SpTRSVCSR struct {
	L *sparse.CSR
	B []float64
	X []float64
}

// NewSpTRSVCSR builds the kernel. L must be lower triangular with a full
// diagonal (sparse.CSR.Lower guarantees this); B and X have length L.Rows
// (aliasing them solves in place).
func NewSpTRSVCSR(l *sparse.CSR, b, x []float64) *SpTRSVCSR {
	return &SpTRSVCSR{L: l, B: b, X: x}
}

// WithVectors returns a copy of the kernel bound to fresh b/x vectors while
// sharing the matrix — the per-session clone the
// serving layer uses to split shared immutable inspection state from
// per-client mutable storage.
func (k *SpTRSVCSR) WithVectors(b, x []float64) *SpTRSVCSR {
	c := *k
	c.B, c.X = b, x
	return &c
}

func (k *SpTRSVCSR) Name() string    { return "SpTRSV-CSR" }
func (k *SpTRSVCSR) Iterations() int { return k.L.Rows }
func (k *SpTRSVCSR) DAG() *dag.Graph { return dag.FromLowerCSR(k.L) }

// Prepare is a no-op: every X entry is fully produced by its own iteration.
func (k *SpTRSVCSR) Prepare() {}

// Run solves row i: X[i] = (B[i] - sum_{j<i} L[i][j]*X[j]) / L[i][i].
// B[i] is read here — not bulk-copied up front — so a fused schedule may
// start row i as soon as the producer of B[i] finishes (the diagonal F of
// Table 1). Column indices are ascending, so the diagonal is the last entry.
// A zero diagonal is a numerical breakdown (typed *BreakdownError through
// the fault channel) rather than a silent Inf/NaN.
func (k *SpTRSVCSR) Run(i int) {
	l := k.L
	xi := k.B[i]
	end := l.P[i+1] - 1
	for p := l.P[i]; p < end; p++ {
		xi -= l.X[p] * k.X[l.I[p]]
	}
	d := l.X[end]
	if d == 0 {
		breakdown(k.Name(), i, "zero diagonal")
	}
	k.X[i] = xi / d
}

func (k *SpTRSVCSR) Footprint() []Var {
	return []Var{matVar(k.L.X, k.L.Size()), VecVar(k.B), VecVar(k.X)}
}

func (k *SpTRSVCSR) Flops() int64 { return 2 * int64(k.L.NNZ()) }

// SpTRSVCSC solves L*X = B for a lower-triangular CSC matrix L, one column
// per iteration: iteration j finalizes X[j] and scatters updates to the rows
// below. Concurrent iterations may scatter into the same X entry, so parallel
// schedules must set Atomic.
type SpTRSVCSC struct {
	L *sparse.CSC
	B []float64
	X []float64
	// Atomic selects atomic scatter updates, required under concurrency.
	Atomic bool

	// spill is the runner-owned slot scratch of the packed body (BindSpill).
	spill []float64
}

// NewSpTRSVCSC builds the kernel. L must be lower triangular with a full
// diagonal; within each column the diagonal is the first entry (row indices
// ascending). B and X have length L.Rows and may not alias.
func NewSpTRSVCSC(l *sparse.CSC, b, x []float64) *SpTRSVCSC {
	// The dependence pattern of CSC TRSV is the lower-triangular pattern
	// itself: edge j -> i for every sub-diagonal entry of column j, with
	// weight = column length — exactly dag.FromLowerCSC.
	return &SpTRSVCSC{L: l, B: b, X: x}
}

func (k *SpTRSVCSC) Name() string    { return "SpTRSV-CSC" }
func (k *SpTRSVCSC) Iterations() int { return k.L.Cols }
func (k *SpTRSVCSC) DAG() *dag.Graph { return dag.FromLowerCSC(k.L) }

// Prepare zeroes X, which accumulates the scatter updates during the solve.
func (k *SpTRSVCSC) Prepare() {
	for i := range k.X {
		k.X[i] = 0
	}
}

// Run finalizes column j: X[j] = (B[j] + accumulated updates) / L[j][j],
// then scatters X[i] -= L[i][j]*X[j] into every sub-diagonal row of column
// j. B[j] is read here rather than bulk-copied, so fused schedules can start
// column j as soon as B[j]'s producer finishes. All scatter updates into
// X[j] come from predecessor columns, which a valid schedule completes
// first, so the plain read of X[j] below is race-free; concurrent columns
// only collide on rows below both, which the Atomic mode protects.
func (k *SpTRSVCSC) Run(j int) {
	l := k.L
	p := l.P[j]
	// Diagonal first (ascending row indices in a lower-triangular column).
	d := l.X[p]
	if d == 0 {
		breakdown(k.Name(), j, "zero diagonal")
	}
	xj := (k.B[j] + k.X[j]) / d
	k.X[j] = xj
	for p++; p < l.P[j+1]; p++ {
		if k.Atomic {
			atomicf.Add(&k.X[l.I[p]], -l.X[p]*xj)
		} else {
			k.X[l.I[p]] -= l.X[p] * xj
		}
	}
}

func (k *SpTRSVCSC) Footprint() []Var {
	return []Var{matVar(k.L.X, k.L.Size()), VecVar(k.B), VecVar(k.X)}
}

func (k *SpTRSVCSC) Flops() int64 { return 2 * int64(k.L.NNZ()) }

// SetAtomic switches the scatter updates into atomic mode (exec.AtomicSetter).
func (k *SpTRSVCSC) SetAtomic(on bool) { k.Atomic = on }
