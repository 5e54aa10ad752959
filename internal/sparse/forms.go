package sparse

import (
	"math"
	"sync"
)

// Forms memoizes what other layers derive from one immutable CSR matrix: its
// lower triangle, its CSC form, and the value checksum of each. Every form is
// computed by the first call that asks for it, at most once, and is shared
// read-only by all callers. A's arrays are never written once wrapped: the
// CSC form of a symmetric A is A's own P, I and X. Nothing returned here may
// ever be written either. The memo lives exactly as long as its Forms value;
// whoever owns the matrix owns that.
//
// Each func holds on to the form it answers from and to nothing else — not
// to A once it has run, not to the Forms — so a consumer may keep one (an
// operation that outlives its matrix handle keeps LowerSum) without keeping
// the matrix alive.
type Forms struct {
	A *CSR

	// Lower and CSC are A.Lower() and A.ToCSC(). When ToCSC would build
	// exactly A's arrays (A.Symmetric with values), CSC returns them instead
	// of a copy.
	Lower func() *CSR
	CSC   func() *CSC
	// Sum, LowerSum and CSCSum are ValueSum of A.X, Lower().X and CSC().X.
	Sum, LowerSum, CSCSum func() uint64
}

// NewForms wraps a; nothing is derived yet.
func NewForms(a *CSR) *Forms {
	lower := sync.OnceValue(a.Lower)
	csc := sync.OnceValue(func() *CSC {
		if a.Symmetric(make([]int, a.Rows), true) {
			return &CSC{Rows: a.Rows, Cols: a.Cols, P: a.P, I: a.I, X: a.X}
		}
		return a.ToCSC()
	})
	return &Forms{
		A: a, Lower: lower, CSC: csc,
		Sum:      sync.OnceValue(func() uint64 { return ValueSum(a.X) }),
		LowerSum: sync.OnceValue(func() uint64 { return ValueSum(lower().X) }),
		CSCSum:   sync.OnceValue(func() uint64 { return ValueSum(csc().X) }),
	}
}

// The checksums are FNV-1a over 64-bit words.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ValueSum is the checksum of a value array's bit patterns, length included.
// Consumers that copied values out of a matrix (the packed re-layout) compare
// it to detect that a matrix with the same pattern holds different numbers.
func ValueSum(x []float64) uint64 {
	h := (uint64(fnvOffset64) ^ uint64(len(x))) * fnvPrime64
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * fnvPrime64
	}
	return h
}

// FoldSums combines the checksums of several arrays, in order, into one: the
// sum a consumer of all of them carries (relayout.SourceSum).
func FoldSums(sums ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, s := range sums {
		h = (h ^ s) * fnvPrime64
	}
	return h
}
