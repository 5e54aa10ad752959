package sparse

import "fmt"

// Permutations are stored as "new order" arrays: perm[newIndex] = oldIndex.
// PermuteSym applies the symmetric permutation P*A*P' that the paper applies
// (via METIS) to every matrix before scheduling.

// InversePerm returns the inverse permutation of p.
func InversePerm(p []int) []int {
	inv := make([]int, len(p))
	for newI, oldI := range p {
		inv[oldI] = newI
	}
	return inv
}

// ValidPerm reports whether p is a permutation of 0..len(p)-1.
func ValidPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// PermuteSym returns P*A*P' for the permutation perm (perm[new] = old).
// The matrix must be square.
func PermuteSym(a *CSR, perm []int) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: symmetric permutation of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if len(perm) != a.Rows || !ValidPerm(perm) {
		return nil, fmt.Errorf("sparse: invalid permutation of length %d for n=%d", len(perm), a.Rows)
	}
	inv := InversePerm(perm)
	n, nnz := a.Rows, a.NNZ()
	// Two stable counting passes: entries bucketed by new column, then by new
	// row, land row by row with ascending columns.
	next := make([]int, n+1) // next[c]: where the next entry of new column c goes
	for _, c := range a.I {
		next[inv[c]+1]++
	}
	for c := 0; c < n; c++ {
		next[c+1] += next[c]
	}
	rows, vals := make([]int, nnz), make([]float64, nnz)
	for r := 0; r < n; r++ {
		newR := inv[r]
		for k := a.P[r]; k < a.P[r+1]; k++ {
			c := inv[a.I[k]]
			rows[next[c]], vals[next[c]] = newR, a.X[k]
			next[c]++
		}
	}
	// The first pass advanced every next[c] to the end of column c, so the
	// columns are walked as consecutive runs; b.P plays next's part for rows.
	b := &CSR{Rows: n, Cols: n, P: make([]int, n+1), I: make([]int, nnz), X: make([]float64, nnz)}
	for newR, oldR := range perm {
		b.P[newR+1] = b.P[newR] + a.P[oldR+1] - a.P[oldR]
	}
	k := 0
	for c := 0; c < n; c++ {
		for ; k < next[c]; k++ {
			r := rows[k]
			b.I[b.P[r]], b.X[b.P[r]] = c, vals[k]
			b.P[r]++
		}
	}
	// Every P[r] now is the end of row r: shift back to the starts.
	copy(b.P[1:], b.P[:n])
	b.P[0] = 0
	return b, nil
}

// PermuteVec returns x reordered so result[new] = x[perm[new]].
func PermuteVec(x []float64, perm []int) []float64 {
	y := make([]float64, len(x))
	for newI, oldI := range perm {
		y[newI] = x[oldI]
	}
	return y
}

// UnpermuteVec undoes PermuteVec: result[perm[new]] = x[new].
func UnpermuteVec(x []float64, perm []int) []float64 {
	y := make([]float64, len(x))
	for newI, oldI := range perm {
		y[oldI] = x[newI]
	}
	return y
}
