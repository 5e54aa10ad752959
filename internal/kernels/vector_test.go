package kernels

import (
	"errors"
	"testing"
)

func vecFixture(n int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)/3
		y[i] = float64(i%5) - 2
	}
	return x, y
}

func TestVecDotMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 100} {
		x, y := vecFixture(n)
		block := 32
		nb := (n + block - 1) / block
		part := make([]float64, nb)
		k := NewVecDot(x, y, part, block)
		if k.Iterations() != nb {
			t.Fatalf("n=%d: %d iterations, want %d", n, k.Iterations(), nb)
		}
		if err := RunSeq(k); err != nil {
			t.Fatal(err)
		}
		// The exact contract is per block: each partial is the naive sum over
		// its own element range (the full dot reassociates across blocks).
		for i := 0; i < nb; i++ {
			lo, hi := vecBlock(i, block, n)
			want := 0.0
			for j := lo; j < hi; j++ {
				want += x[j] * y[j]
			}
			if part[i] != want {
				t.Fatalf("n=%d: part[%d] = %v, naive %v", n, i, part[i], want)
			}
		}
	}
}

func TestVecDotDualSecondPair(t *testing.T) {
	n, block := 70, 16
	x, y := vecFixture(n)
	nb := (n + block - 1) / block
	p1 := make([]float64, nb)
	p2 := make([]float64, nb)
	k := NewVecDotDual(x, y, p1, y, y, p2, block)
	if k.Name() != "VecDot2" {
		t.Fatalf("dual name %q", k.Name())
	}
	if err := RunSeq(k); err != nil {
		t.Fatal(err)
	}
	s2 := 0.0
	for _, p := range p2 {
		s2 += p
	}
	want := 0.0
	for i := range y {
		want += y[i] * y[i]
	}
	if s2 != want {
		t.Fatalf("second pair %v, naive %v", s2, want)
	}
}

func TestVecAxpyDotUpdatesAndChecks(t *testing.T) {
	n, block := 50, 16
	x, y := vecFixture(n)
	y0 := append([]float64(nil), y...)
	nb := (n + block - 1) / block
	part := make([]float64, nb)
	for i := range part {
		part[i] = float64(i + 1)
	}
	den := 0.0
	for _, p := range part {
		den += p
	}
	num := []float64{3}
	k := NewVecAxpyDot(x, y, num, part, -1, block, false)
	if err := RunSeq(k); err != nil {
		t.Fatal(err)
	}
	a := -1 * num[0] / den
	for i := range y {
		if want := y0[i] + a*x[i]; y[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}

	// CheckPositive trips on a non-positive partial sum and surfaces as a
	// BreakdownError naming the kernel.
	for i := range part {
		part[i] = -1
	}
	kc := NewVecAxpyDot(x, y, num, part, 1, block, true)
	err := RunSeq(kc)
	var brk *BreakdownError
	if !errors.As(err, &brk) {
		t.Fatalf("negative curvature: error %v, want BreakdownError", err)
	}
	if brk.Kernel != kc.Name() {
		t.Fatalf("breakdown kernel %q, want %q", brk.Kernel, kc.Name())
	}
}

func TestVecXpayDotUpdateAndZeroDenominator(t *testing.T) {
	n, block := 40, 8
	x, y := vecFixture(n)
	y0 := append([]float64(nil), y...)
	nb := (n + block - 1) / block
	part := make([]float64, nb)
	for i := range part {
		part[i] = 0.5
	}
	num := 0.0
	for _, p := range part {
		num += p
	}
	den := []float64{4}
	k := NewVecXpayDot(x, y, den, part, block)
	if err := RunSeq(k); err != nil {
		t.Fatal(err)
	}
	beta := num / den[0]
	for i := range y {
		if want := x[i] + beta*y0[i]; y[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
	den[0] = 0
	err := RunSeq(NewVecXpayDot(x, y, den, part, block))
	var brk *BreakdownError
	if !errors.As(err, &brk) {
		t.Fatalf("zero denominator: error %v, want BreakdownError", err)
	}
}

// TestVectorKernelsBatchAndPackedDelegate: the batch body and the packed body
// must both reproduce Run exactly — the packed stream carries zero entries
// per iteration, so packed execution falls through to the batch path.
func TestVectorKernelsBatchAndPackedDelegate(t *testing.T) {
	n, block := 90, 16
	x, y := vecFixture(n)
	nb := (n + block - 1) / block
	part := make([]float64, nb)
	k := NewVecDot(x, y, part, block)

	want := make([]float64, nb)
	for i := 0; i < nb; i++ {
		k.Run(i)
	}
	copy(want, part)

	iters := make([]int32, nb)
	for i := range iters {
		iters[i] = int32(i)
	}
	for i := range part {
		part[i] = 0
	}
	k.RunMany(iters)
	for i := range want {
		if part[i] != want[i] {
			t.Fatalf("RunMany part[%d] = %v, want %v", i, part[i], want[i])
		}
	}

	s := packStream(k, nb)
	for i := 0; i < nb; i++ {
		if idx, val, pos := k.Operands(i); len(idx) != 0 || len(val) != 0 || pos != -1 {
			t.Fatalf("vector kernel iteration %d reads %d/%d operand entries at position %d", i, len(idx), len(val), pos)
		}
	}
	if len(s.Len) != nb {
		t.Fatalf("stream carries %d per-iteration records, want %d", len(s.Len), nb)
	}
	for i, l := range s.Len {
		if l != 0 {
			t.Fatalf("stream record %d has length %d, want 0", i, l)
		}
	}
	if k.PackedSource() != nil {
		t.Fatal("vector kernel claims a packed value source")
	}
	for i := range part {
		part[i] = 0
	}
	k.RunManyPacked(iters, s, 0, 0)
	for i := range want {
		if part[i] != want[i] {
			t.Fatalf("RunManyPacked part[%d] = %v, want %v", i, part[i], want[i])
		}
	}
}

func TestVecBlockDAGShape(t *testing.T) {
	g := vecBlockDAG(100, 32, 5)
	if g.N != 4 {
		t.Fatalf("blocks %d, want 4", g.N)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("vector DAG has %d edges, want 0", g.NumEdges())
	}
	// Weights: 32+5, 32+5, 32+5, 4+5.
	want := []int{37, 37, 37, 9}
	for i, w := range want {
		if g.W[i] != w {
			t.Fatalf("w[%d] = %d, want %d", i, g.W[i], w)
		}
	}
}
