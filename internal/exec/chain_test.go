package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// Chain-composition coverage: k-kernel chains (k = 3..5) must execute
// bit-identically to the sequential kernel-by-kernel reference at every
// worker count on every executor rung — compiled and packed — because every
// output element is written by exactly one iteration with a fixed interior order and every cross-loop read is ordered
// by the composed F chain.

// chainFixture is a k-kernel chain plus the machinery the equivalence tests
// need: reset restores every mutable vector to its initial contents, snap
// copies the observable outputs.
type chainFixture struct {
	ks    []kernels.Kernel
	loops *core.Loops
	reset func()
	snap  func() []float64
}

// trsvChain builds x1 = L\b, x2 = L\x1, ..., xk = L\x(k-1): k coupled
// triangular solves over one factor, each adjacency a diagonal F (row i of a
// solve reads exactly element i of the previous one).
func trsvChain(t *testing.T, n, k int) *chainFixture {
	t.Helper()
	a := sparse.Must(sparse.RandomSPD(n, 6, 7))
	l := a.Lower()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%13)
	}
	in := b
	fx := &chainFixture{loops: &core.Loops{}}
	var outs [][]float64
	for j := 0; j < k; j++ {
		out := make([]float64, n)
		kj := kernels.NewSpTRSVCSR(l, in, out)
		fx.ks = append(fx.ks, kj)
		fx.loops.G = append(fx.loops.G, kj.DAG())
		if j > 0 {
			fx.loops.F = append(fx.loops.F, core.FDiagonal(n))
		}
		outs = append(outs, out)
		in = out
	}
	fx.reset = func() {
		for _, o := range outs {
			for i := range o {
				o[i] = 0
			}
		}
	}
	fx.snap = func() []float64 {
		var s []float64
		for _, o := range outs {
			s = append(s, o...)
		}
		return s
	}
	if err := fx.loops.Check(); err != nil {
		t.Fatalf("chain loops: %v", err)
	}
	return fx
}

// mixedChain interleaves sparse and blocked vector kernels the way the fused
// CG chain does: q = A*p, per-block partials part = p·q, x += (num/Σpart)·p,
// r -= (num/Σpart)·q — four loops with block-aggregation, dense, and diagonal
// F matrices.
func mixedChain(t *testing.T, n, block int) *chainFixture {
	t.Helper()
	a := sparse.Must(sparse.RandomSPD(n, 5, 11))
	nb := (n + block - 1) / block
	p := make([]float64, n)
	r0 := make([]float64, n)
	for i := range p {
		p[i] = 1 + float64(i%5)/7
		r0[i] = float64(i%3) - 1
	}
	q := make([]float64, n)
	x := make([]float64, n)
	r := append([]float64(nil), r0...)
	part := make([]float64, nb)
	num := []float64{1.5}
	ks := []kernels.Kernel{
		kernels.NewSpMVCSR(a, p, q),
		kernels.NewVecDot(p, q, part, block),
		kernels.NewVecAxpyDot(p, x, num, part, +1, block, true),
		kernels.NewVecAxpyDot(q, r, num, part, -1, block, false),
	}
	loops := &core.Loops{
		G: []*dag.Graph{ks[0].DAG(), ks[1].DAG(), ks[2].DAG(), ks[3].DAG()},
		F: []*sparse.CSR{
			core.FBlockAgg(nb, n, block),
			core.FDense(nb, nb),
			core.FDiagonal(nb),
		},
	}
	if err := loops.Check(); err != nil {
		t.Fatalf("mixed chain loops: %v", err)
	}
	return &chainFixture{
		ks:    ks,
		loops: loops,
		reset: func() {
			for i := range x {
				x[i] = 0
			}
			copy(r, r0)
			for i := range part {
				part[i] = 0
			}
		},
		snap: func() []float64 {
			var s []float64
			for _, v := range [][]float64{q, part, x, r} {
				s = append(s, v...)
			}
			return s
		},
	}
}

// runSeqReference executes the chain kernel by kernel, single-threaded.
func runSeqReference(t *testing.T, fx *chainFixture) []float64 {
	t.Helper()
	fx.reset()
	for _, k := range fx.ks {
		if err := kernels.RunSeq(k); err != nil {
			t.Fatalf("sequential reference: %v", err)
		}
	}
	return fx.snap()
}

func chainSchedule(t *testing.T, fx *chainFixture, threads int) *core.Schedule {
	t.Helper()
	sched, err := core.ICO(fx.loops, core.Params{
		Threads:    threads,
		ReuseRatio: core.ReuseRatioChain(fx.ks),
		LBC:        lbc.Params{InitialCut: 3, Agg: 8},
	})
	if err != nil {
		t.Fatalf("ICO: %v", err)
	}
	if err := fx.loops.Validate(sched); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	return sched
}

func assertBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: snapshot length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %x, reference %x", label, i, got[i], want[i])
		}
	}
}

// TestChainBitIdenticalAcrossExecutors: k = 3, 4, 5 TRSV chains plus the
// mixed sparse/vector chain agree bit-for-bit with the sequential reference
// at workers 1..8 on the compiled and packed rungs, as does the one-thread
// walk of the same schedule.
func TestChainBitIdenticalAcrossExecutors(t *testing.T) {
	cases := map[string]*chainFixture{
		"trsv-k3": trsvChain(t, 240, 3),
		"trsv-k4": trsvChain(t, 240, 4),
		"trsv-k5": trsvChain(t, 240, 5),
		"mixed":   mixedChain(t, 300, 32),
	}
	for name, fx := range cases {
		want := runSeqReference(t, fx)
		sched := chainSchedule(t, fx, 4)
		for workers := 1; workers <= 8; workers++ {
			run := func(label string, exec func() (Stats, error)) {
				fx.reset()
				if _, err := exec(); err != nil {
					t.Fatalf("%s %s w=%d: %v", name, label, workers, err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s %s w=%d", name, label, workers), fx.snap(), want)
			}
			r, err := compileUnpacked(fx.ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			run("compiled", func() (Stats, error) { return r.Run(workers) })

			rp, _, err := compilePacked(fx.ks, sched)
			if err != nil {
				t.Fatalf("%s: pack: %v", name, err)
			}
			if rp.Layout() == nil {
				t.Fatalf("%s: packed runner did not attach its layout", name)
			}
			run("packed", func() (Stats, error) { return rp.Run(workers) })

			run("sequential", func() (Stats, error) { return RunScheduleSequential(context.Background(), fx.ks, sched) })
		}
	}
}

// TestChainMidKernelFaultAttribution: a numerical breakdown inside a
// mid-chain w-partition must surface as an *ExecError that unwraps to the
// *kernels.BreakdownError naming the faulting kernel and row — the loop- and
// worker-attribution contract chain debugging depends on.
func TestChainMidKernelFaultAttribution(t *testing.T) {
	n := 200
	a := sparse.Must(sparse.RandomSPD(n, 5, 3))
	l := a.Lower()
	// The middle kernel solves against a privately corrupted factor: one
	// zeroed diagonal deep enough that several s-partitions complete first.
	lBad := l.Clone()
	badRow := n / 2
	for p := lBad.P[badRow]; p < lBad.P[badRow+1]; p++ {
		if lBad.I[p] == badRow {
			lBad.X[p] = 0
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	ks := []kernels.Kernel{
		kernels.NewSpTRSVCSR(l, b, x1),
		kernels.NewSpTRSVCSR(lBad, x1, x2),
		kernels.NewSpMVCSR(a, x2, y),
	}
	loops := &core.Loops{
		G: []*dag.Graph{ks[0].DAG(), ks[1].DAG(), ks[2].DAG()},
		F: []*sparse.CSR{core.FDiagonal(n), core.FPattern(a)},
	}
	sched, err := core.ICO(loops, core.Params{Threads: 4, ReuseRatio: core.ReuseRatioChain(ks), LBC: lbc.Params{InitialCut: 3, Agg: 8}})
	if err != nil {
		t.Fatalf("ICO: %v", err)
	}
	r, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = r.Run(4)
	if err == nil {
		t.Fatal("corrupted mid-chain factor executed without error")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is %T (%v), want *ExecError", err, err)
	}
	if ee.Worker < 0 || ee.Worker >= 4 {
		t.Fatalf("worker attribution %d out of range", ee.Worker)
	}
	if ee.WPartition < 0 {
		t.Fatalf("fault not attributed to a w-partition: %d", ee.WPartition)
	}
	var brk *kernels.BreakdownError
	if !errors.As(err, &brk) {
		t.Fatalf("error does not unwrap to *kernels.BreakdownError: %v", err)
	}
	if brk.Row != badRow {
		t.Fatalf("breakdown attributed to row %d, corrupted row %d", brk.Row, badRow)
	}
	if want := ks[1].Name(); brk.Kernel != want {
		t.Fatalf("breakdown attributed to kernel %q, want mid-chain %q", brk.Kernel, want)
	}
}
