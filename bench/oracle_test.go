package main

import (
	"math"
	"testing"

	sf "sparsefusion"
	"sparsefusion/internal/sparse"
)

// tridiag5 is the 5x5 matrix with 2 on the diagonal and -1 beside it.
func tridiag5(t *testing.T) *sparse.CSR {
	var ts []sparse.Triplet
	for i := 0; i < 5; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2})
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1}, sparse.Triplet{Row: i - 1, Col: i, Val: -1})
		}
	}
	a, err := sparse.FromTriplets(5, 5, ts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The expected vectors were worked out by hand.
func TestOracleOnFiveByFive(t *testing.T) {
	a := tridiag5(t)
	b := []float64{2, 1, 0, 3, 4}
	y := oracleLowerSolve(a, b)
	wantY := []float64{1, 1, 0.5, 1.75, 2.875}
	if !bitEqual(y, wantY) {
		t.Fatalf("lower solve = %v, want %v", y, wantY)
	}
	z := oracleSpMV(a, wantY)
	wantZ := []float64{1, 0.5, -1.75, 0.125, 4}
	if !bitEqual(z, wantZ) {
		t.Fatalf("spmv = %v, want %v", z, wantZ)
	}
	if got, ok := oracleExpected(sf.TrsvMv, a, b); !ok || !bitEqual(got, wantZ) {
		t.Errorf("TRSV-MV = %v, want %v", got, wantZ)
	}
	if got, ok := oracleExpected(sf.TrsvTrsv, a, b); !ok || !bitEqual(got, oracleLowerSolve(a, wantY)) {
		t.Errorf("TRSV-TRSV = %v", got)
	}
	if got, ok := oracleExpected(sf.MvMv, a, b); !ok || !bitEqual(got, oracleSpMV(a, oracleSpMV(a, b))) {
		t.Errorf("MV-MV = %v", got)
	}
	if _, ok := oracleExpected(sf.Ic0Trsv, a, b); ok {
		t.Error("the oracle claims to cover a factorization")
	}
	// x = A^-1 b for b = A*(1,2,3,4,5).
	x := []float64{1, 2, 3, 4, 5}
	if r := relResidual(a, x, oracleSpMV(a, x)); r != 0 {
		t.Errorf("residual of the exact solution = %v", r)
	}
	if r := relResidual(a, []float64{1, 2, 3, 4, 5.5}, oracleSpMV(a, x)); r < 0.05 {
		t.Errorf("residual of a wrong solution = %v", r)
	}
}

func TestVectorChecks(t *testing.T) {
	want := []float64{1, -2, 4}
	if err := checkVector("v", []float64{1, -2, 4 + 1e-10}, want); err != nil {
		t.Errorf("1e-10 off rejected: %v", err)
	}
	if err := checkVector("v", []float64{1, -2, 4 + 1e-7}, want); err == nil {
		t.Error("1e-7 off accepted")
	}
	if err := checkVector("v", []float64{1, math.NaN(), 4}, want); err == nil {
		t.Error("NaN accepted")
	}
	if err := checkVector("v", []float64{1, -2}, want); err == nil {
		t.Error("short vector accepted")
	}
	a, b := 0.1, 0.2 // variables: a+b is rounded at run time, unlike the constant 0.1 + 0.2
	if !bitEqual([]float64{a + b}, []float64{a + b}) || bitEqual([]float64{a + b}, []float64{0.3}) {
		t.Error("bitEqual is not bit equality")
	}
}
