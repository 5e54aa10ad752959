package kernels

import (
	"sparsefusion/internal/atomicf"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// SpMVCSR computes Y = A*X one row per iteration. Fully parallel: iteration i
// owns Y[i].
type SpMVCSR struct {
	A *sparse.CSR
	X []float64
	Y []float64
}

// NewSpMVCSR builds the kernel. X and Y must have length A.Cols and A.Rows.
func NewSpMVCSR(a *sparse.CSR, x, y []float64) *SpMVCSR {
	return &SpMVCSR{A: a, X: x, Y: y}
}

// WithVectors returns a copy of the kernel bound to fresh x/y vectors,
// sharing the matrix (per-session clone).
func (k *SpMVCSR) WithVectors(x, y []float64) *SpMVCSR {
	c := *k
	c.X, c.Y = x, y
	return &c
}

func (k *SpMVCSR) Name() string    { return "SpMV-CSR" }
func (k *SpMVCSR) Iterations() int { return k.A.Rows }
func (k *SpMVCSR) DAG() *dag.Graph { return dag.ParallelCSR(k.A.P, 0) }

// Prepare zeroes Y.
func (k *SpMVCSR) Prepare() {
	for i := range k.Y {
		k.Y[i] = 0
	}
}

// Run computes Y[i] = sum_j A[i][j] * X[j].
func (k *SpMVCSR) Run(i int) {
	a := k.A
	s := 0.0
	for p := a.P[i]; p < a.P[i+1]; p++ {
		s += a.X[p] * k.X[a.I[p]]
	}
	k.Y[i] = s
}

func (k *SpMVCSR) Footprint() []Var {
	return []Var{matVar(k.A.X, k.A.Size()), VecVar(k.X), VecVar(k.Y)}
}

func (k *SpMVCSR) Flops() int64 { return 2 * int64(k.A.NNZ()) }

// SpMVCSC computes Y += A*X one column per iteration, scattering into Y.
// Fully parallel across columns, but concurrent iterations may collide on
// Y entries, so parallel schedules must set Atomic (the paper's "Atomic:"
// annotation, figure 2a).
type SpMVCSC struct {
	A *sparse.CSC
	X []float64
	Y []float64
	// Atomic selects atomic accumulation into Y; required whenever Run is
	// invoked from concurrent goroutines.
	Atomic bool

	// spill is the runner-owned slot scratch of the packed body (BindSpill).
	spill []float64
}

// NewSpMVCSC builds the kernel. X and Y must have length A.Cols and A.Rows.
func NewSpMVCSC(a *sparse.CSC, x, y []float64) *SpMVCSC {
	return &SpMVCSC{A: a, X: x, Y: y}
}

// WithVectors returns a copy of the kernel bound to fresh x/y vectors,
// sharing the matrix (per-session clone). Atomic mode
// and the spill binding reset: the executor re-arms both per run.
func (k *SpMVCSC) WithVectors(x, y []float64) *SpMVCSC {
	c := *k
	c.X, c.Y = x, y
	c.Atomic = false
	c.spill = nil
	return &c
}

func (k *SpMVCSC) Name() string    { return "SpMV-CSC" }
func (k *SpMVCSC) Iterations() int { return k.A.Cols }
func (k *SpMVCSC) DAG() *dag.Graph { return dag.ParallelCSR(k.A.P, 0) }

// Prepare zeroes Y.
func (k *SpMVCSC) Prepare() {
	for i := range k.Y {
		k.Y[i] = 0
	}
}

// Run scatters column j: Y[rows of col j] += A[:,j] * X[j].
func (k *SpMVCSC) Run(j int) {
	a := k.A
	xj := k.X[j]
	if k.Atomic {
		for p := a.P[j]; p < a.P[j+1]; p++ {
			atomicf.Add(&k.Y[a.I[p]], a.X[p]*xj)
		}
		return
	}
	for p := a.P[j]; p < a.P[j+1]; p++ {
		k.Y[a.I[p]] += a.X[p] * xj
	}
}

func (k *SpMVCSC) Footprint() []Var {
	return []Var{matVar(k.A.X, k.A.Size()), VecVar(k.X), VecVar(k.Y)}
}

func (k *SpMVCSC) Flops() int64 { return 2 * int64(k.A.NNZ()) }

// SpMVPlusCSR computes Y = A*X + B one row per iteration; the SpMV half of a
// Gauss-Seidel sweep ((D-F)x' = Ex + b reads Ex + b, paper section 4.3).
type SpMVPlusCSR struct {
	A *sparse.CSR
	X []float64
	B []float64
	Y []float64
}

// NewSpMVPlusCSR builds the kernel; all vectors have length A.Rows (= Cols).
func NewSpMVPlusCSR(a *sparse.CSR, x, b, y []float64) *SpMVPlusCSR {
	return &SpMVPlusCSR{A: a, X: x, B: b, Y: y}
}

// WithVectors returns a copy of the kernel bound to fresh x/b/y vectors,
// sharing the matrix (per-session clone).
func (k *SpMVPlusCSR) WithVectors(x, b, y []float64) *SpMVPlusCSR {
	c := *k
	c.X, c.B, c.Y = x, b, y
	return &c
}

func (k *SpMVPlusCSR) Name() string    { return "SpMV+b-CSR" }
func (k *SpMVPlusCSR) Iterations() int { return k.A.Rows }
func (k *SpMVPlusCSR) DAG() *dag.Graph { return dag.ParallelCSR(k.A.P, 1) }
func (k *SpMVPlusCSR) Prepare()        {}

// Run computes Y[i] = B[i] + sum_j A[i][j]*X[j].
func (k *SpMVPlusCSR) Run(i int) {
	a := k.A
	s := k.B[i]
	for p := a.P[i]; p < a.P[i+1]; p++ {
		s += a.X[p] * k.X[a.I[p]]
	}
	k.Y[i] = s
}

func (k *SpMVPlusCSR) Footprint() []Var {
	return []Var{matVar(k.A.X, k.A.Size()), VecVar(k.X), VecVar(k.B), VecVar(k.Y)}
}

func (k *SpMVPlusCSR) Flops() int64 { return 2*int64(k.A.NNZ()) + int64(k.A.Rows) }

// SetAtomic switches the scatter updates into atomic mode (exec.AtomicSetter).
func (k *SpMVCSC) SetAtomic(on bool) { k.Atomic = on }
