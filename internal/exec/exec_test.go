package exec

import (
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/dagp"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/wavefront"
)

const threads = 4

func icoParams() core.Params {
	return core.Params{Threads: threads, LBC: lbc.Params{InitialCut: 3, Agg: 8}}
}

// fusedTrsvMv builds the paper's running combination (Table 1 row 3):
// y = L \ x, then z = A*y with CSC SpMV.
func fusedTrsvMv(n int, seed int64) (*core.Loops, []kernels.Kernel, func() []float64) {
	a := sparse.Must(sparse.RandomSPD(n, 5, seed))
	l := a.Lower()
	ac := a.ToCSC()
	x := sparse.RandomVec(n, seed+1)
	y := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, x, y)
	k2 := kernels.NewSpMVCSC(ac, y, z)
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FTrsvToMVCSC(ac)},
	}
	return loops, []kernels.Kernel{k1, k2}, func() []float64 { return append([]float64(nil), z...) }
}

// fusedTrsvTrsv: x = L \ b, z = L \ x (Table 1 row 1).
func fusedTrsvTrsv(n int, seed int64) (*core.Loops, []kernels.Kernel, func() []float64) {
	a := sparse.Must(sparse.RandomSPD(n, 5, seed))
	l := a.Lower()
	b := sparse.RandomVec(n, seed+1)
	x := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, b, x)
	k2 := kernels.NewSpTRSVCSR(l, x, z)
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FDiagonal(n)},
	}
	return loops, []kernels.Kernel{k1, k2}, func() []float64 { return append([]float64(nil), z...) }
}

// fusedIC0Trsv: L*L' ~= A, then y = L \ b, both CSC (Table 1 row 4).
func fusedIC0Trsv(n int, seed int64) (*core.Loops, []kernels.Kernel, func() []float64) {
	a := sparse.Must(sparse.RandomSPD(n, 5, seed))
	lc := a.Lower().ToCSC()
	b := sparse.RandomVec(n, seed+1)
	y := make([]float64, n)
	k1 := kernels.NewSpIC0CSC(lc)
	k2 := kernels.NewSpTRSVCSC(lc, b, y)
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FDiagonal(n)},
	}
	return loops, []kernels.Kernel{k1, k2}, func() []float64 { return append([]float64(nil), y...) }
}

// fusedDscalIlu0: scale A in place, then ILU0 factor it (Table 1 row 2).
// The observable result is the factored value array.
func fusedDscalIlu0(n int, seed int64) (*core.Loops, []kernels.Kernel, func() []float64) {
	a := sparse.Must(sparse.RandomSPD(n, 5, seed))
	work := a.Clone()
	d := kernels.JacobiScaling(a)
	k1 := kernels.NewDScalCSR(work, d, work)
	k2, err := kernels.NewSpILU0CSR(work)
	if err != nil {
		panic(err)
	}
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FDiagonal(n)},
	}
	return loops, []kernels.Kernel{k1, k2}, func() []float64 { return append([]float64(nil), work.X...) }
}

type comboFn func(int, int64) (*core.Loops, []kernels.Kernel, func() []float64)

var combos = map[string]comboFn{
	"trsv-mv":    fusedTrsvMv,
	"trsv-trsv":  fusedTrsvTrsv,
	"ic0-trsv":   fusedIC0Trsv,
	"dscal-ilu0": fusedDscalIlu0,
}

// seqResult computes the reference result by running the kernels one after
// another, sequentially.
func seqResult(ks []kernels.Kernel, snap func() []float64) []float64 {
	for _, k := range ks {
		k.Prepare()
	}
	for _, k := range ks {
		n := k.Iterations()
		for i := 0; i < n; i++ {
			k.Run(i)
		}
	}
	return snap()
}

func TestRunFusedMatchesSequentialAllCombos(t *testing.T) {
	for name, mk := range combos {
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			want := seqResult(ks, snap)
			p := icoParams()
			p.ReuseRatio = reuse
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := loops.Validate(sched); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for rep := 0; rep < 3; rep++ { // replay to catch races / Prepare bugs
				st := mustRun(once(threads)(compileUnpacked(ks, sched)))
				if got := snap(); sparse.RelErr(got, want) > 1e-9 {
					t.Fatalf("%s reuse %v rep %d: fused result diverges by %v",
						name, reuse, rep, sparse.RelErr(snap(), want))
				}
				if st.Barriers != sched.NumSPartitions() {
					t.Fatalf("%s: %d barriers for %d s-partitions", name, st.Barriers, sched.NumSPartitions())
				}
			}
		}
	}
}

func TestRunPartitionedMatchesSequential(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(400, 5, 9))
	l := a.Lower()
	b := sparse.RandomVec(400, 10)
	x := make([]float64, 400)
	k := kernels.NewSpTRSVCSR(l, b, x)
	want := seqResult([]kernels.Kernel{k}, func() []float64 { return append([]float64(nil), x...) })

	wf, err := wavefront.Schedule(k.DAG(), threads)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lbc.Schedule(k.DAG(), threads, lbc.Params{InitialCut: 3, Agg: 10})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dagp.Schedule(k.DAG(), threads, dagp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		st   Stats
	}{
		{"wavefront", mustRun(once(threads)(CompilePartitioned([]kernels.Kernel{k}, wf)))},
		{"lbc", mustRun(once(threads)(CompilePartitioned([]kernels.Kernel{k}, lb)))},
		{"dagp", mustRun(once(threads)(CompilePartitioned([]kernels.Kernel{k}, dg)))},
	} {
		if got := append([]float64(nil), x...); sparse.RelErr(got, want) > 1e-9 {
			t.Fatalf("%s: diverges", tc.name)
		}
		if tc.st.Barriers == 0 {
			t.Fatalf("%s: no barriers recorded", tc.name)
		}
	}
}

func TestRunJointMatchesSequential(t *testing.T) {
	loops, ks, snap := fusedTrsvMv(350, 11)
	want := seqResult(ks, snap)
	joint, err := dag.JointChain([]*dag.Graph{loops.G[0], loops.G[1]}, []*sparse.CSR{loops.F[0]})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wavefront.Schedule(joint, threads)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lbc.ScheduleChordal(joint, threads, lbc.Params{InitialCut: 3, Agg: 10})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dagp.Schedule(joint, threads, dagp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		st   Stats
	}{
		{"joint-wavefront", mustRun(once(threads)(CompilePartitioned(ks, wf)))},
		{"joint-lbc", mustRun(once(threads)(CompilePartitioned(ks, lb)))},
		{"joint-dagp", mustRun(once(threads)(CompilePartitioned(ks, dg)))},
	} {
		if got := snap(); sparse.RelErr(got, want) > 1e-9 {
			t.Fatalf("%s: diverges by %v", tc.name, sparse.RelErr(snap(), want))
		}
		_ = tc.st
	}
}

func TestSingleThreadNoAtomics(t *testing.T) {
	loops, ks, snap := fusedTrsvMv(200, 17)
	want := seqResult(ks, snap)
	sched, err := core.ICO(loops, core.Params{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	once(1)(compileUnpacked(ks, sched))
	if got := snap(); sparse.RelErr(got, want) > 1e-9 {
		t.Fatal("single-thread fused run diverges")
	}
	// Atomic mode must be off after the run.
	if ks[1].(*kernels.SpMVCSC).Atomic {
		t.Fatal("atomic mode left enabled")
	}
}
