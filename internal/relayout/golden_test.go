package relayout_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
)

// layoutHash is the SHA-256 of everything a layout holds: per stream Idx, the
// bits of Val, Len and Pos; SegEnt; and per loop the scatter record (fold
// table, fold offsets and the three counts). Every array is length-prefixed.
func layoutHash(lay *relayout.Layout) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	arr := func(v any, n int) {
		put(int64(n))
		put(v)
	}
	for _, s := range lay.Streams {
		arr(s.Idx, len(s.Idx))
		arr(s.Val, len(s.Val))
		arr(s.Len, len(s.Len))
		arr(s.Pos, len(s.Pos))
	}
	arr(lay.SegEnt, len(lay.SegEnt))
	for _, sc := range lay.Scatter {
		if sc == nil {
			put(int64(-1))
			continue
		}
		arr(sc.FoldTarget, len(sc.FoldTarget))
		arr(sc.FoldOff, len(sc.FoldOff))
		put([]int64{int64(sc.Entries), int64(sc.Redirected), int64(sc.Slots)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inspect runs ICO over a chain at the given width and compiles the schedule.
func inspect(t *testing.T, loops *core.Loops, reuse float64, nLoops, threads int) (*core.Schedule, *core.Program) {
	t.Helper()
	sched, err := core.ICO(loops, core.Params{Threads: threads, ReuseRatio: reuse, LBC: lbc.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileSchedule(sched, nLoops)
	if err != nil {
		t.Fatal(err)
	}
	return sched, prog
}

// fusedProgram is inspect's compiled program.
func fusedProgram(t *testing.T, loops *core.Loops, reuse float64, nLoops, threads int) *core.Program {
	t.Helper()
	_, prog := inspect(t, loops, reuse, nLoops, threads)
	return prog
}

// pcgLinks is the preconditioned CG chain the facade's fused solver composes
// (8 loops: SpMV, p·Ap, the x and r updates, L\r, L'\y, the dual dot and the
// direction update) over blocks of block elements.
func pcgLinks(t *testing.T, a *sparse.CSR, block int) []combos.ChainLink {
	t.Helper()
	n := a.Rows
	nb := (n + block - 1) / block
	vec := func() []float64 { return make([]float64, n) }
	x, r, p, q, y, z := vec(), sparse.RandomVec(n, 9), sparse.RandomVec(n, 10), vec(), vec(), vec()
	partPQ, partRR, partRZ := make([]float64, nb), make([]float64, nb), make([]float64, nb)
	rz := []float64{1}
	lc := a.Lower().ToCSC()
	if err := kernels.RunSeq(kernels.NewSpIC0CSC(lc)); err != nil {
		t.Fatal(err)
	}
	return []combos.ChainLink{
		{K: kernels.NewSpMVCSR(a, p, q)},
		{K: kernels.NewVecDot(p, q, partPQ, block), F: core.FBlockAgg(nb, n, block)},
		{K: kernels.NewVecAxpyDot(p, x, rz, partPQ, +1, block, true), F: core.FDense(nb, nb)},
		{K: kernels.NewVecAxpyDot(q, r, rz, partPQ, -1, block, false), F: core.FDiagonal(nb)},
		{K: kernels.NewSpTRSVCSR(lc.ToCSR(), r, y), F: core.FBlockExpand(n, nb, block)},
		{K: kernels.NewSpTRSVTransCSC(lc, y, z), F: core.FAntiDiagonal(n)},
		{K: kernels.NewVecDotDual(r, z, partRZ, r, r, partRR, block), F: core.FBlockAggFlip(nb, n, block)},
		{K: kernels.NewVecXpayDot(z, p, rz, partRZ, block), F: core.FDense(nb, nb)},
	}
}

// goldenLayouts are layoutHash of every fixture of TestLayoutGolden.
var goldenLayouts = map[string]string{
	"lap2d:40/DSCAL-CSR/threads=4":   "ac154dfabf79297eb9a6839b7f230813b9df916d6efde0272b4d67e7128335a2",
	"lap2d:40/GS-3sweeps/threads=4":  "c1303dc44ab0cf2827a2ee635cb9909738c170a3e67d3a6a410f15dd2f806474",
	"lap2d:40/MV-MV/threads=2":       "e64a0389f13098de9299513287f1b0c6491501324132415fd2dfcee19c86b5ed",
	"lap2d:40/MV-MV/threads=4":       "56977b70935e036a3d012bbdd68ac1e547e4ce1b9b6baf4440a9ed9b55c967eb",
	"lap2d:40/TRSV-MV/threads=2":     "349f0e8bbb16af90955e6944d3eb68f060a9c7042ebcd1fc0c026d57f4149457",
	"lap2d:40/TRSV-MV/threads=4":     "9e561d8d596e5ce27c93f3557aed6be6f419f7d51535220e516e27a083a367d3",
	"lap2d:40/TRSV-TRSV/threads=2":   "dc1bb9d4e81040ccc47c43e660cac8937ad4c78f19378e7827521dd859c32968",
	"lap2d:40/TRSV-TRSV/threads=4":   "18dedbd7823c3b2a5da09c9e39d18c40f9f0f119846c8ec0e03419a7db94afea",
	"lap2d:40/pcg/threads=4":         "18238f206fe8934b5b5e7599bfdd453d8825864616d2a7a1f7cffa74c1712192",
	"pow:4000:6/MV-MV/threads=2":     "faaf1d15a8026e31a6caac805d70b40cfa537c5132e6f30f79bbf29a87ec05eb",
	"pow:4000:6/MV-MV/threads=4":     "f12fee22832d22ea0afd55b459ed4e04e32c6e4189a93fc4033dcd0347419d08",
	"pow:4000:6/TRSV-MV/threads=2":   "5c48de493d93c6f9b0a92d04acf143d6491cde103f433aa9cdbb1e772fc0c4e1",
	"pow:4000:6/TRSV-MV/threads=4":   "a64dd27f485249bc896fcbf615e11469a6eece68a904e859052df50d74dda733",
	"pow:4000:6/TRSV-TRSV/threads=2": "adf36dae4d7ea87dc3d3456ba146bc642d72f320914afeed41dfe1581301646d",
	"pow:4000:6/TRSV-TRSV/threads=4": "de8e2529fd2af8958a5487325b20233836e0677e3cc96748f5ab3754aac72a58",
}

// TestLayoutGolden pins the bytes relayout.Build produces: the pure
// combinations on two nested-dissection-ordered patterns at two widths, a
// three-sweep Gauss-Seidel chain, the preconditioned CG chain and a DSCAL
// loop (the one kernel with a Pos stream).
func TestLayoutGolden(t *testing.T) {
	got := map[string]string{}
	build := func(name string, prog *core.Program, ks []kernels.Kernel) {
		lay, err := relayout.Build(prog, ks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = layoutHash(lay)
	}
	for _, spec := range []string{"lap2d:40", "pow:4000:6"} {
		a, err := suite.Parse(spec, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []combos.ID{combos.TrsvTrsv, combos.TrsvMv, combos.MvMv} {
			in, err := combos.Build(id, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/threads=%d", spec, in.Name, th)
				build(name, fusedProgram(t, in.Loops, in.Reuse, len(in.Kernels), th), in.Kernels)
			}
		}
	}

	a, err := suite.Parse("lap2d:40", true)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := combos.BuildGS(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	build("lap2d:40/GS-3sweeps/threads=4", fusedProgram(t, gs.Loops, gs.Reuse, len(gs.Kernels), 4), gs.Kernels)

	chain, err := combos.BuildChain(combos.ChainSpec{Name: "pcg", Links: pcgLinks(t, a, 64)})
	if err != nil {
		t.Fatal(err)
	}
	pcg := chain.Groups[0]
	build("lap2d:40/pcg/threads=4", fusedProgram(t, pcg.Loops, pcg.Reuse, len(pcg.Kernels), 4), pcg.Kernels)

	dscal := kernels.NewDScalCSR(a, kernels.JacobiScaling(a), a.Clone())
	p, err := lbc.Schedule(dscal.DAG(), 4, lbc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.CompilePartitioned(dscal, p)
	if err != nil {
		t.Fatal(err)
	}
	build("lap2d:40/DSCAL-CSR/threads=4", r.Program(), []kernels.Kernel{dscal})

	for key, sum := range got {
		if want, ok := goldenLayouts[key]; !ok || sum != want {
			t.Errorf("%s: layout %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenLayouts {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden layout no longer built", key)
		}
	}
}
