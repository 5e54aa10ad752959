package kernels

import (
	"testing"

	"sparsefusion/internal/sparse"
)

func packAll(loop, n int) []int32 {
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = PackIter(loop, i)
	}
	return out
}

func TestPackIterRoundTrip(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {3, 12345}, {MaxLoops - 1, MaxIterations - 1}} {
		v := PackIter(tc[0], tc[1])
		loop, idx := UnpackIter(v)
		if loop != tc[0] || idx != tc[1] {
			t.Fatalf("pack(%d,%d) -> unpack(%d,%d)", tc[0], tc[1], loop, idx)
		}
		if v < 0 {
			t.Fatalf("pack(%d,%d) = %d is negative", tc[0], tc[1], v)
		}
	}
}

// TestRunManyMatchesRun drives every BatchRunner through RunMany and asserts
// bit-identical results against the per-iteration Run path in the same order.
func TestRunManyMatchesRun(t *testing.T) {
	const n = 200
	a := sparse.Must(sparse.RandomSPD(n, 5, 31))
	l := a.Lower()
	lc := l.ToCSC()
	ac := a.ToCSC()
	b := sparse.RandomVec(n, 32)
	d := JacobiScaling(a)

	cases := []struct {
		name string
		mk   func() (Kernel, func() []float64)
	}{
		{"spmv-csr", func() (Kernel, func() []float64) {
			y := make([]float64, n)
			k := NewSpMVCSR(a, b, y)
			return k, func() []float64 { return append([]float64(nil), y...) }
		}},
		{"spmv-csc", func() (Kernel, func() []float64) {
			y := make([]float64, n)
			k := NewSpMVCSC(ac, b, y)
			return k, func() []float64 { return append([]float64(nil), y...) }
		}},
		{"spmv-plus-csr", func() (Kernel, func() []float64) {
			y := make([]float64, n)
			k := NewSpMVPlusCSR(a, b, b, y)
			return k, func() []float64 { return append([]float64(nil), y...) }
		}},
		{"sptrsv-csr", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVCSR(l, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-csc", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVCSC(lc, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-trans-csc", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVTransCSC(lc, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-unitlower-csr", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVUnitLowerCSR(a, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"dscal-csr", func() (Kernel, func() []float64) {
			work := a.Clone()
			k := NewDScalCSR(work, d, work)
			return k, func() []float64 { return append([]float64(nil), work.X...) }
		}},
		{"dscal-csc", func() (Kernel, func() []float64) {
			work := ac.Clone()
			k := NewDScalCSC(work, d, work)
			return k, func() []float64 { return append([]float64(nil), work.X...) }
		}},
	}
	for _, tc := range cases {
		k, snap := tc.mk()
		RunSeq(k)
		want := snap()
		br, ok := k.(BatchRunner)
		if !ok {
			t.Fatalf("%s: kernel does not implement BatchRunner", tc.name)
		}
		k.Prepare()
		br.RunMany(packAll(MaxLoops-1, k.Iterations()))
		got := snap()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: RunMany diverges at %d: %v != %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestFusePair interleaves the two loops' iterations through the fused body
// and asserts bit-identical results against running the kernels back to back.
func TestFusePair(t *testing.T) {
	const n = 150
	a := sparse.Must(sparse.RandomSPD(n, 4, 33))
	l := a.Lower()
	lc := l.ToCSC()
	ac := a.ToCSC()
	b := sparse.RandomVec(n, 34)

	type pair struct {
		name   string
		k1, k2 Kernel
		snap   func() []float64
	}
	mkPairs := func() []pair {
		var ps []pair
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"trsv-mv", NewSpTRSVCSR(l, b, y), NewSpMVCSC(ac, y, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"trsv-trsv", NewSpTRSVCSR(l, b, y), NewSpTRSVCSR(l, y, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		{
			t1, x1 := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"mvplus-trsv", NewSpMVPlusCSR(a, b, b, t1), NewSpTRSVCSR(l, t1, x1),
				func() []float64 { return append([]float64(nil), x1...) }})
		}
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"trsv-mvplus", NewSpTRSVCSR(l, b, y), NewSpMVPlusCSR(a, y, b, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"fwd-bwd", NewSpTRSVCSC(lc, b, y), NewSpTRSVTransCSC(lc, y, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		return ps
	}

	for _, p := range mkPairs() {
		fn, _, ok := FusePair(p.k1, p.k2, 2)
		if !ok {
			t.Fatalf("%s: FusePair returned no body", p.name)
		}
		RunSeq(p.k1)
		RunSeq(p.k2)
		want := p.snap()

		// Interleave: all of loop 1 first is always dependency-safe, but we
		// exercise the mixed decode by alternating the tail halves.
		var stream []int32
		half := n / 2
		for i := 0; i < half; i++ {
			stream = append(stream, PackIter(2, i))
		}
		for i := half; i < n; i++ {
			stream = append(stream, PackIter(2, i), PackIter(3, i-half))
		}
		for i := n - half; i < n; i++ {
			stream = append(stream, PackIter(3, i))
		}
		// The alternation above is only dependency-safe for diagonal-style F;
		// pairs whose consumer reads more than its own index are run with the
		// safe all-producers-first stream instead.
		safe := p.name == "trsv-trsv" || p.name == "trsv-mv"
		if !safe {
			stream = stream[:0]
			for i := 0; i < n; i++ {
				stream = append(stream, PackIter(2, i))
			}
			for i := 0; i < n; i++ {
				stream = append(stream, PackIter(3, i))
			}
		}
		p.k1.Prepare()
		p.k2.Prepare()
		fn(stream)
		got := p.snap()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: fused pair diverges at %d: %v != %v", p.name, i, got[i], want[i])
			}
		}
	}

	// A pair with no specialization reports ok=false.
	y := make([]float64, n)
	if _, _, ok := FusePair(NewSpIC0CSC(lc.Clone()), NewSpTRSVCSC(lc, b, y), 0); ok {
		t.Fatal("FusePair specialized an unexpected pair")
	}
}
