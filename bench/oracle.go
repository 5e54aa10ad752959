package main

import (
	"fmt"
	"math"

	sf "sparsefusion"
	"sparsefusion/internal/sparse"
)

// The correctness oracle: plain loops over the CSR arrays, written here so
// that no output is ever checked against the executor that produced it. Only
// the CSR container type comes from the library.

// oracleTol is the relative tolerance for the substitution and SpMV checks.
const oracleTol = 1e-9

// oracleLowerSolve solves L*y = b by forward substitution, L being the lower
// triangle of a including the diagonal.
func oracleLowerSolve(a *sparse.CSR, b []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s, d := b[i], 0.0
		for p := a.P[i]; p < a.P[i+1]; p++ {
			switch j := a.I[p]; {
			case j < i:
				s -= a.X[p] * y[j]
			case j == i:
				d = a.X[p]
			}
		}
		y[i] = s / d
	}
	return y
}

// oracleSpMV computes a*x row by row.
func oracleSpMV(a *sparse.CSR, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.P[i]; p < a.P[i+1]; p++ {
			s += a.X[p] * x[a.I[p]]
		}
		y[i] = s
	}
	return y
}

// oracleExpected computes the output of a vector combination for input in;
// ok is false for the factorization combinations, which the oracle does not
// cover (they are checked bit for bit against a sequential run).
func oracleExpected(c sf.Combination, a *sparse.CSR, in []float64) (out []float64, ok bool) {
	switch c {
	case sf.TrsvTrsv:
		return oracleLowerSolve(a, oracleLowerSolve(a, in)), true
	case sf.TrsvMv:
		return oracleSpMV(a, oracleLowerSolve(a, in)), true
	case sf.MvMv:
		return oracleSpMV(a, oracleSpMV(a, in)), true
	}
	return nil, false
}

// relErrInf is max|got-want| / max|want|; a length mismatch or a NaN is an
// infinite error.
func relErrInf(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	num, den := 0.0, 0.0
	for i, w := range want {
		d := math.Abs(got[i] - w)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		num = math.Max(num, d)
		den = math.Max(den, math.Abs(w))
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// checkVector reports an error when got misses want by more than oracleTol.
func checkVector(what string, got, want []float64) error {
	if e := relErrInf(got, want); !(e <= oracleTol) {
		return fmt.Errorf("%s: relative error %.3g exceeds %.0e", what, e, oracleTol)
	}
	return nil
}

// relResidual is the true residual ||b - a*x|| / ||b|| in the 2-norm.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != a.Cols {
		return math.Inf(1)
	}
	ax := oracleSpMV(a, x)
	rr, bb := 0.0, 0.0
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	r := math.Sqrt(rr / bb)
	if math.IsNaN(r) {
		return math.Inf(1)
	}
	return r
}

// bitEqual reports whether two vectors hold the same bits.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
