package kernels

import (
	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// SpTRSVTransCSC solves L'*X = B for a lower-triangular CSC matrix L — the
// backward substitution that applies the second half of an incomplete
// Cholesky preconditioner (z = L' \ (L \ r)). Columns are processed from
// last to first; to keep the Kernel contract that dependencies flow from
// lower to higher iteration indices, iteration it processes column
// j = n-1-it. Iteration it gathers from column j of L, reading X at the
// sub-diagonal rows (all finalized by earlier iterations) and writing only
// X[j], so DAG-respecting schedules need no atomics.
type SpTRSVTransCSC struct {
	L *sparse.CSC
	B []float64
	X []float64
}

// NewSpTRSVTransCSC builds the kernel. L must be lower triangular with the
// diagonal first in every column; B and X have length L.Cols and must not
// alias.
func NewSpTRSVTransCSC(l *sparse.CSC, b, x []float64) *SpTRSVTransCSC {
	return &SpTRSVTransCSC{L: l, B: b, X: x}
}

// transSolveDAG builds the iteration DAG of SpTRSVTransCSC over l.
func transSolveDAG(l *sparse.CSC) *dag.Graph {
	n := l.Cols
	// Column j depends on every column i > j with L[i][j] != 0 (the solve
	// reads X[i]); in iteration space: edge (n-1-i) -> (n-1-j). Counting
	// build: tally successors per source, prefix-sum, then fill scanning
	// columns last to first so each source's successor list comes out in
	// ascending destination order — the same adjacency FromEdges produced,
	// without the edge list or the sort.
	g := &dag.Graph{N: n, P: make([]int, n+1), W: make([]int, n)}
	for j := 0; j < n; j++ {
		g.W[n-1-j] = l.P[j+1] - l.P[j]
		for p := l.P[j]; p < l.P[j+1]; p++ {
			if i := l.I[p]; i > j {
				g.P[n-i]++ // slot src+1 with src = n-1-i
			}
		}
	}
	for v := 0; v < n; v++ {
		g.P[v+1] += g.P[v]
	}
	g.I = make([]int, g.P[n])
	nextp := getInts(n)
	defer putInts(nextp)
	next := *nextp
	copy(next, g.P[:n])
	for j := n - 1; j >= 0; j-- {
		for p := l.P[j]; p < l.P[j+1]; p++ {
			if i := l.I[p]; i > j {
				s := n - 1 - i
				g.I[next[s]] = n - 1 - j
				next[s]++
			}
		}
	}
	return g
}

func (k *SpTRSVTransCSC) Name() string    { return "SpTRSV-trans-CSC" }
func (k *SpTRSVTransCSC) Iterations() int { return k.L.Cols }
func (k *SpTRSVTransCSC) DAG() *dag.Graph { return transSolveDAG(k.L) }
func (k *SpTRSVTransCSC) Prepare()        {}

// Run processes iteration it (column j = n-1-it):
// X[j] = (B[j] - sum_{i>j} L[i][j]*X[i]) / L[j][j].
// A zero diagonal reports a typed breakdown instead of emitting Inf/NaN.
func (k *SpTRSVTransCSC) Run(it int) {
	l := k.L
	j := l.Cols - 1 - it
	p := l.P[j]
	diag := l.X[p]
	if diag == 0 {
		breakdown(k.Name(), it, "zero diagonal in column %d", j)
	}
	xj := k.B[j]
	for p++; p < l.P[j+1]; p++ {
		xj -= l.X[p] * k.X[l.I[p]]
	}
	k.X[j] = xj / diag
}

func (k *SpTRSVTransCSC) Footprint() []Var {
	return []Var{matVar(k.L.X, k.L.Size()), VecVar(k.B), VecVar(k.X)}
}

func (k *SpTRSVTransCSC) Flops() int64 { return 2 * int64(k.L.NNZ()) }
