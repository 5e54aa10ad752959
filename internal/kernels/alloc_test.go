package kernels

import (
	"testing"

	"sparsefusion/internal/sparse"
)

// TestConstructorAllocsBounded guards the satellite rework of the kernel
// constructors: DAG adjacency is assembled directly in CSR form (no edge
// lists, no sort), read lists live in one flat backing, and counting cursors
// come from the shared pool. Every constructor must finish in a small,
// size-independent number of allocations; the old append-grown edge lists
// allocated O(log nnz) grow steps and the per-row read-list appends
// allocated O(n). Bounds are deliberately loose (about 2x the current counts)
// so only a regression back to per-element allocation trips them. Note the
// weight slices themselves are retained by the DAG (dag.Parallel keeps w),
// so they rightly count as one allocation, not workspace. The DAG is built on
// each DAG() call, so every case asks for it: construction plus DAG() is what
// an inspection pays.
func TestConstructorAllocsBounded(t *testing.T) {
	const n = 2000
	a := sparse.Must(sparse.RandomSPD(n, 8, 5))
	l := a.Lower()
	lc := l.ToCSC()
	ac := a.ToCSC()
	d := JacobiScaling(a)
	b := sparse.RandomVec(n, 6)
	x := make([]float64, n)
	y := make([]float64, n)
	work := a.Clone()
	workC := ac.Clone()

	cases := []struct {
		name  string
		bound float64
		f     func()
	}{
		{"NewSpMVCSR", 8, func() { NewSpMVCSR(a, x, y).DAG() }},
		{"NewSpMVCSC", 8, func() { NewSpMVCSC(ac, x, y).DAG() }},
		{"NewSpMVPlusCSR", 8, func() { NewSpMVPlusCSR(a, x, b, y).DAG() }},
		{"NewDScalCSR", 10, func() { NewDScalCSR(a, d, work).DAG() }},
		{"NewDScalCSC", 10, func() { NewDScalCSC(ac, d, workC).DAG() }},
		{"NewSpTRSVCSR", 12, func() { NewSpTRSVCSR(l, b, x).DAG() }},
		{"NewSpTRSVCSC", 10, func() { NewSpTRSVCSC(lc, b, x).DAG() }},
		{"NewSpTRSVTransCSC", 12, func() { NewSpTRSVTransCSC(lc, b, x).DAG() }},
		{"NewSpTRSVUnitLowerCSR", 12, func() { NewSpTRSVUnitLowerCSR(l, b, x).DAG() }},
		{"NewSpIC0CSC", 20, func() { NewSpIC0CSC(lc).DAG() }},
		{"NewSpILU0CSR", 16, func() { k, _ := NewSpILU0CSR(a); k.DAG() }},
	}
	for _, tc := range cases {
		tc.f() // warm the scratch pool so steady-state is measured
		if got := testing.AllocsPerRun(5, tc.f); got > tc.bound {
			t.Errorf("%s: %.0f allocs per construction, want <= %.0f", tc.name, got, tc.bound)
		}
	}
}

func benchConstructor(b *testing.B, f func()) {
	b.ReportAllocs()
	f()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkNewSpIC0CSC(b *testing.B) {
	a := sparse.Must(sparse.RandomSPD(20000, 8, 5))
	lc := a.Lower().ToCSC()
	benchConstructor(b, func() { NewSpIC0CSC(lc).DAG() })
}

func BenchmarkNewSpILU0CSR(b *testing.B) {
	a := sparse.Must(sparse.RandomSPD(20000, 8, 5))
	benchConstructor(b, func() { k, _ := NewSpILU0CSR(a); k.DAG() })
}

func BenchmarkNewSpTRSVCSC(b *testing.B) {
	a := sparse.Must(sparse.RandomSPD(20000, 8, 5))
	lc := a.Lower().ToCSC()
	b1 := sparse.RandomVec(20000, 6)
	x := make([]float64, 20000)
	benchConstructor(b, func() { NewSpTRSVCSC(lc, b1, x).DAG() })
}
