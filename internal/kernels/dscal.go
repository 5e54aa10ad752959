package kernels

import (
	"math"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// DScalCSR computes the symmetric diagonal scaling Out = D*A*D one row per
// iteration, where D = diag(d). With d[i] = 1/sqrt(A[i][i]) this is the
// equilibration step of the paper's DAD combinations (Table 1, rows 2 and 6).
// Fully parallel: iteration i owns row i of Out.
type DScalCSR struct {
	A *sparse.CSR
	D []float64
	// Out receives the scaled values; it shares A's pattern. It may be A
	// itself for in-place scaling (Prepare then restores on replay).
	Out *sparse.CSR

	a0 []float64
}

// NewDScalCSR builds the kernel. Out must share A's pattern (same P and I).
func NewDScalCSR(a *sparse.CSR, d []float64, out *sparse.CSR) *DScalCSR {
	return &DScalCSR{A: a, D: d, Out: out, a0: append([]float64(nil), a.X...)}
}

// JacobiScaling returns d with d[i] = 1/sqrt(A[i][i]).
func JacobiScaling(a *sparse.CSR) []float64 {
	d := a.Diag()
	for i := range d {
		if d[i] > 0 {
			d[i] = 1 / math.Sqrt(d[i])
		} else {
			d[i] = 1
		}
	}
	return d
}

func (k *DScalCSR) Name() string    { return "DSCAL-CSR" }
func (k *DScalCSR) Iterations() int { return k.A.Rows }
func (k *DScalCSR) DAG() *dag.Graph { return dag.ParallelCSR(k.A.P, 0) }

// Prepare restores A's original values (relevant when scaling in place).
func (k *DScalCSR) Prepare() { copy(k.A.X, k.a0) }

// Run scales row i: Out[i][j] = D[i]*A[i][j]*D[j].
// A non-finite scale factor is a numerical breakdown: it would poison every
// entry of the row (and, through the fused chain, whatever factors it next).
func (k *DScalCSR) Run(i int) {
	a := k.A
	di := k.D[i]
	if di-di != 0 {
		breakdown(k.Name(), i, "non-finite scale %v", di)
	}
	for p := a.P[i]; p < a.P[i+1]; p++ {
		k.Out.X[p] = di * a.X[p] * k.D[a.I[p]]
	}
}

func (k *DScalCSR) Footprint() []Var {
	fp := []Var{matVar(k.A.X, k.A.Size()), VecVar(k.D)}
	if &k.Out.X[0] != &k.A.X[0] {
		fp = append(fp, matVar(k.Out.X, k.Out.Size()))
	}
	return fp
}

func (k *DScalCSR) Flops() int64 { return 2 * int64(k.A.NNZ()) }

// DScalCSC is the column-variant of DScalCSR (Table 1 row 6 pairs it with
// SpIC0 in CSC). Iteration j owns column j of Out.
type DScalCSC struct {
	A   *sparse.CSC
	D   []float64
	Out *sparse.CSC

	a0 []float64
}

// NewDScalCSC builds the kernel. Out must share A's pattern.
func NewDScalCSC(a *sparse.CSC, d []float64, out *sparse.CSC) *DScalCSC {
	return &DScalCSC{A: a, D: d, Out: out, a0: append([]float64(nil), a.X...)}
}

func (k *DScalCSC) Name() string    { return "DSCAL-CSC" }
func (k *DScalCSC) Iterations() int { return k.A.Cols }
func (k *DScalCSC) DAG() *dag.Graph { return dag.ParallelCSR(k.A.P, 0) }

// Prepare restores A's original values.
func (k *DScalCSC) Prepare() { copy(k.A.X, k.a0) }

// Run scales column j: Out[i][j] = D[i]*A[i][j]*D[j].
// A non-finite scale factor reports a typed breakdown, as in DScalCSR.
func (k *DScalCSC) Run(j int) {
	a := k.A
	dj := k.D[j]
	if dj-dj != 0 {
		breakdown(k.Name(), j, "non-finite scale %v", dj)
	}
	for p := a.P[j]; p < a.P[j+1]; p++ {
		k.Out.X[p] = k.D[a.I[p]] * a.X[p] * dj
	}
}

func (k *DScalCSC) Footprint() []Var {
	fp := []Var{matVar(k.A.X, k.A.Size()), VecVar(k.D)}
	if &k.Out.X[0] != &k.A.X[0] {
		fp = append(fp, matVar(k.Out.X, k.Out.Size()))
	}
	return fp
}

func (k *DScalCSC) Flops() int64 { return 2 * int64(k.A.NNZ()) }
