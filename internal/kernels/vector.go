package kernels

import (
	"sparsefusion/internal/dag"
)

// Fused vector kernels: the dot/axpy/norm bodies of an iterative solver as
// first-class Kernels, so a whole CG/PCG iteration can run inside one fused
// schedule instead of returning to the host between every SpMV and vector
// update. Each kernel is blocked — iteration i owns the contiguous element
// range [i*block, min((i+1)*block, n)) — which keeps the iteration count low
// enough for dense F matrices between vector loops while leaving enough
// blocks to spread across workers.
//
// Reductions deliberately have no single-iteration "scalar" kernel: a
// one-iteration loop would make every consumer block a self-contained join
// onto its w-partition and serialize the chain. Instead VecDot materializes
// per-block partials, and every consumer block re-sums the partials in fixed
// index order — identical arithmetic in every block, at every worker count,
// on every executor, so the recomputation costs a few hundred flops per block
// and buys bit-reproducibility plus full-width parallelism. The norm of the
// PCG residual is the same mechanism: a VecDot of r against itself.

// vecBlock returns the element range of block i.
func vecBlock(i, block, n int) (lo, hi int) {
	lo = i * block
	hi = lo + block
	if hi > n {
		hi = n
	}
	return lo, hi
}

// vecBlockDAG builds the edge-free per-block DAG: nb blocks of up to block
// elements each, weighted by element count plus a fixed per-iteration cost
// (the partial re-sum for reduction consumers, 0 for plain dots).
func vecBlockDAG(n, block, bump int) *dag.Graph {
	nb := (n + block - 1) / block
	w := make([]int, nb)
	for i := 0; i < nb; i++ {
		lo, hi := vecBlock(i, block, n)
		w[i] = hi - lo + bump
	}
	return dag.Parallel(nb, w)
}

// VecDot computes per-block partial dot products: Part[i] = Σ_{j∈block i}
// X[j]·Y[j]. An optional second pair (X2·Y2 into Part2) rides the same pass,
// which is how PCG gets r·z and the convergence norm r·r from one loop.
// Part is fully overwritten every run, so Prepare is a no-op and stale
// partials from the previous solver iteration never leak (consumers depend on
// this loop through F, so they only ever observe fresh values).
type VecDot struct {
	X, Y []float64
	Part []float64
	// Dual mode (nil when unused): Part2[i] = Σ_{j∈block i} X2[j]·Y2[j].
	X2, Y2 []float64
	Part2  []float64

	block int
}

// NewVecDot builds the kernel over blocks of block elements;
// len(part) = ceil(len(x)/block).
func NewVecDot(x, y, part []float64, block int) *VecDot {
	return &VecDot{X: x, Y: y, Part: part, block: block}
}

// NewVecDotDual additionally accumulates x2·y2 into part2 in the same pass.
func NewVecDotDual(x, y, part, x2, y2, part2 []float64, block int) *VecDot {
	k := NewVecDot(x, y, part, block)
	k.X2, k.Y2, k.Part2 = x2, y2, part2
	return k
}

func (k *VecDot) Name() string {
	if k.X2 != nil {
		return "VecDot2"
	}
	return "VecDot"
}
func (k *VecDot) Iterations() int { return len(k.Part) }
func (k *VecDot) DAG() *dag.Graph { return vecBlockDAG(len(k.X), k.block, 0) }
func (k *VecDot) Prepare()        {}

func (k *VecDot) Run(i int) {
	lo, hi := vecBlock(i, k.block, len(k.X))
	s := 0.0
	for j := lo; j < hi; j++ {
		s += k.X[j] * k.Y[j]
	}
	k.Part[i] = s
	if k.X2 != nil {
		s2 := 0.0
		for j := lo; j < hi; j++ {
			s2 += k.X2[j] * k.Y2[j]
		}
		k.Part2[i] = s2
	}
}

func (k *VecDot) Footprint() []Var {
	fp := []Var{VecVar(k.X), VecVar(k.Y), VecVar(k.Part)}
	if k.X2 != nil {
		fp = append(fp, VecVar(k.X2), VecVar(k.Y2), VecVar(k.Part2))
	}
	return fp
}

func (k *VecDot) Flops() int64 {
	f := 2 * int64(len(k.X))
	if k.X2 != nil {
		f *= 2
	}
	return f
}

// VecAxpyDot updates Y[j] += Sign·(Num[0]/ΣPart)·X[j] over block i, re-summing
// the Part partials in index order (see the package comment). Num is a
// one-element host-owned cell — in PCG the previous r·z — read once per block.
// With CheckPositive set, a non-positive or non-finite ΣPart is reported as a
// numerical breakdown (the p·Ap ≤ 0 "matrix is not SPD" case) instead of
// poisoning the solve with Inf/NaN.
type VecAxpyDot struct {
	X, Y []float64
	Num  []float64
	Part []float64
	Sign float64
	// CheckPositive guards ΣPart > 0 — the SPD curvature check.
	CheckPositive bool

	block int
}

// NewVecAxpyDot builds the kernel; num is a one-element cell and
// len(part) = ceil(len(x)/block).
func NewVecAxpyDot(x, y, num, part []float64, sign float64, block int, checkPositive bool) *VecAxpyDot {
	return &VecAxpyDot{
		X: x, Y: y, Num: num, Part: part, Sign: sign, CheckPositive: checkPositive,
		block: block,
	}
}

func (k *VecAxpyDot) Name() string    { return "VecAxpyDot" }
func (k *VecAxpyDot) Iterations() int { return len(k.Part) }
func (k *VecAxpyDot) DAG() *dag.Graph { return vecBlockDAG(len(k.X), k.block, len(k.Part)) }
func (k *VecAxpyDot) Prepare()        {}

func (k *VecAxpyDot) Run(i int) {
	den := 0.0
	for _, p := range k.Part {
		den += p
	}
	if k.CheckPositive && !(den > 0) {
		breakdown(k.Name(), i, "non-positive curvature p'Ap = %v", den)
	}
	a := k.Sign * k.Num[0] / den
	lo, hi := vecBlock(i, k.block, len(k.X))
	for j := lo; j < hi; j++ {
		k.Y[j] += a * k.X[j]
	}
}

func (k *VecAxpyDot) Footprint() []Var {
	return []Var{VecVar(k.X), VecVar(k.Y), VecVar(k.Num), VecVar(k.Part)}
}

func (k *VecAxpyDot) Flops() int64 {
	return 2*int64(len(k.X)) + int64(len(k.Part))
}

// VecXpayDot updates Y[j] = X[j] + (ΣPart/Den[0])·Y[j] over block i — the
// search-direction update p = z + β·p with β re-derived per block from the
// fresh partials and the host-owned previous reduction in Den. A zero or
// non-finite denominator is a breakdown (the solver's rz collapsed to zero
// without converging).
type VecXpayDot struct {
	X, Y []float64
	Den  []float64
	Part []float64

	block int
}

// NewVecXpayDot builds the kernel; den is a one-element cell and
// len(part) = ceil(len(x)/block).
func NewVecXpayDot(x, y, den, part []float64, block int) *VecXpayDot {
	return &VecXpayDot{
		X: x, Y: y, Den: den, Part: part,
		block: block,
	}
}

func (k *VecXpayDot) Name() string    { return "VecXpayDot" }
func (k *VecXpayDot) Iterations() int { return len(k.Part) }
func (k *VecXpayDot) DAG() *dag.Graph { return vecBlockDAG(len(k.X), k.block, len(k.Part)) }
func (k *VecXpayDot) Prepare()        {}

func (k *VecXpayDot) Run(i int) {
	num := 0.0
	for _, p := range k.Part {
		num += p
	}
	d := k.Den[0]
	if d == 0 || d != d {
		breakdown(k.Name(), i, "zero rz denominator")
	}
	beta := num / d
	lo, hi := vecBlock(i, k.block, len(k.X))
	for j := lo; j < hi; j++ {
		k.Y[j] = k.X[j] + beta*k.Y[j]
	}
}

func (k *VecXpayDot) Footprint() []Var {
	return []Var{VecVar(k.X), VecVar(k.Y), VecVar(k.Den), VecVar(k.Part)}
}

func (k *VecXpayDot) Flops() int64 {
	return 2*int64(len(k.X)) + int64(len(k.Part))
}

// Batch dispatch: the blocks are tiny in number, so the batch bodies just
// unpack and run.

func (k *VecDot) RunMany(iters []int32) {
	for _, v := range iters {
		k.Run(int(v & IterMask))
	}
}

func (k *VecAxpyDot) RunMany(iters []int32) {
	for _, v := range iters {
		k.Run(int(v & IterMask))
	}
}

func (k *VecXpayDot) RunMany(iters []int32) {
	for _, v := range iters {
		k.Run(int(v & IterMask))
	}
}

// Packed ABI: vector kernels index nothing indirectly — their operands are
// dense contiguous ranges — so every operand run is empty (the packed stream
// still carries one zero Len per iteration) and packed execution falls
// through to the batch body untouched.

func (k *VecDot) Operands(i int) ([]int, []float64, int)     { return nil, nil, -1 }
func (k *VecAxpyDot) Operands(i int) ([]int, []float64, int) { return nil, nil, -1 }
func (k *VecXpayDot) Operands(i int) ([]int, []float64, int) { return nil, nil, -1 }

func (k *VecDot) PackedSource() []float64     { return nil }
func (k *VecAxpyDot) PackedSource() []float64 { return nil }
func (k *VecXpayDot) PackedSource() []float64 { return nil }

func (k *VecDot) RunManyPacked(iters []int32, s *PackedStream, ent, it int)     { k.RunMany(iters) }
func (k *VecAxpyDot) RunManyPacked(iters []int32, s *PackedStream, ent, it int) { k.RunMany(iters) }
func (k *VecXpayDot) RunManyPacked(iters []int32, s *PackedStream, ent, it int) { k.RunMany(iters) }

var (
	_ Kernel       = (*VecDot)(nil)
	_ BatchRunner  = (*VecDot)(nil)
	_ PackedKernel = (*VecDot)(nil)

	_ Kernel       = (*VecAxpyDot)(nil)
	_ BatchRunner  = (*VecAxpyDot)(nil)
	_ PackedKernel = (*VecAxpyDot)(nil)

	_ Kernel       = (*VecXpayDot)(nil)
	_ BatchRunner  = (*VecXpayDot)(nil)
	_ PackedKernel = (*VecXpayDot)(nil)
)
