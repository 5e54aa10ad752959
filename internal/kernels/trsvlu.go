package kernels

import (
	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// SpTRSVUnitLowerCSR solves L*X = B where L is the unit-diagonal lower
// factor stored inside a combined LU matrix (the in-place output of
// SpILU0CSR): row i's strictly-lower entries are L[i][:] and the diagonal is
// implicitly 1. This is the solve kernel of the SpILU0-SpTRSV combination
// (Table 1 row 5), reading the factor directly from the fused ILU0 output.
type SpTRSVUnitLowerCSR struct {
	LU *sparse.CSR
	B  []float64
	X  []float64
}

// NewSpTRSVUnitLowerCSR builds the kernel over the combined factor pattern.
// The strictly-lower entries of LU are the dependence edges (dag.FromLowerCSR
// ignores the U part); only the weights differ from the default — the solve
// reads just the L prefix of each row, so w[i] = 1 + #strictly-lower entries
// rather than the full row length.
func NewSpTRSVUnitLowerCSR(lu *sparse.CSR, b, x []float64) *SpTRSVUnitLowerCSR {
	return &SpTRSVUnitLowerCSR{LU: lu, B: b, X: x}
}

func (k *SpTRSVUnitLowerCSR) Name() string    { return "SpTRSV-unitL-CSR" }
func (k *SpTRSVUnitLowerCSR) Iterations() int { return k.LU.Rows }
func (k *SpTRSVUnitLowerCSR) Prepare()        {}

func (k *SpTRSVUnitLowerCSR) DAG() *dag.Graph {
	lu := k.LU
	g := dag.FromLowerCSR(lu)
	for i := 0; i < lu.Rows; i++ {
		c := 1
		for p := lu.P[i]; p < lu.P[i+1] && lu.I[p] < i; p++ {
			c++
		}
		g.W[i] = c
	}
	return g
}

// Run solves row i with the implicit unit diagonal:
// X[i] = B[i] - sum_{j<i} LU[i][j]*X[j].
// The unit diagonal cannot divide by zero, but a non-finite factor entry
// (a broken upstream factorization) would otherwise spread NaN through every
// later row; the result is guarded so the poisoning surfaces as a typed
// breakdown at the first affected row.
func (k *SpTRSVUnitLowerCSR) Run(i int) {
	lu := k.LU
	xi := k.B[i]
	for p := lu.P[i]; p < lu.P[i+1]; p++ {
		j := lu.I[p]
		if j >= i {
			break
		}
		xi -= lu.X[p] * k.X[j]
	}
	if xi-xi != 0 {
		breakdown(k.Name(), i, "non-finite solution %v", xi)
	}
	k.X[i] = xi
}

func (k *SpTRSVUnitLowerCSR) Footprint() []Var {
	return []Var{matVar(k.LU.X, k.LU.Size()), VecVar(k.B), VecVar(k.X)}
}

func (k *SpTRSVUnitLowerCSR) Flops() int64 {
	var f int64
	for i := 0; i < k.LU.Rows; i++ {
		for p := k.LU.P[i]; p < k.LU.P[i+1] && k.LU.I[p] < i; p++ {
			f += 2
		}
	}
	return f
}
