package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/wavefront"
)

// walk runs the schedule through the one-thread oracle.
func walk(ks []kernels.Kernel, sched *core.Schedule) Stats {
	return mustRun(RunScheduleSequential(context.Background(), ks, sched))
}

// scatters reports whether the chain has a CSC scatter kernel, whose sums
// associate differently under parallelism; every other chain is gather-only
// and must reproduce the oracle's bits at any width.
func scatters(ks []kernels.Kernel) bool {
	for _, k := range ks {
		if _, ok := k.(AtomicSetter); ok {
			return true
		}
	}
	return false
}

// asSchedule spells a baseline partitioning of a joint DAG as a fused
// schedule — vertices below n1 are loop-0 iterations, the rest loop-1 — so the
// partitioned and joint runners are checked against the same oracle as the
// fused one. A single kernel's partitioning passes its iteration count as n1.
func asSchedule(p *partition.Partitioning, n1 int) *core.Schedule {
	sched := &core.Schedule{}
	for _, sp := range p.S {
		var ws [][]core.Iter
		for _, wp := range sp {
			var its []core.Iter
			for _, v := range wp {
				if v < n1 {
					its = append(its, core.Iter{Loop: 0, Idx: v})
				} else {
					its = append(its, core.Iter{Loop: 1, Idx: v - n1})
				}
			}
			ws = append(ws, its)
		}
		sched.S = append(sched.S, ws)
	}
	return sched
}

// TestCompiledMatchesSequentialWalkBitIdentical: on width-1 schedules (ICO at
// Threads=1) the runner and the walk execute the same iterations in the same
// order with the same arithmetic, so outputs must match bit for bit; the
// runner crosses one barrier per s-partition, the walk none.
func TestCompiledMatchesSequentialWalkBitIdentical(t *testing.T) {
	for name, mk := range combos {
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := core.Params{Threads: 1, ReuseRatio: reuse, LBC: lbc.Params{InitialCut: 3, Agg: 8}}
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st := walk(ks, sched); st.Barriers != 0 {
				t.Fatalf("%s reuse %v: the walk reports %d barriers", name, reuse, st.Barriers)
			}
			want := snap()
			r, err := compileUnpacked(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			stC := mustRun(r.Run(1))
			if got := snap(); !bitsSame(got, want) {
				t.Fatalf("%s reuse %v: compiled output differs from the walk's", name, reuse)
			}
			if stC.Barriers != sched.NumSPartitions() {
				t.Fatalf("%s reuse %v: %d barriers, %d s-partitions", name, reuse, stC.Barriers, sched.NumSPartitions())
			}
		}
	}
}

// TestCompiledMatchesSequentialWalkParallel: on wide schedules gather-only
// chains still reproduce the walk's bits; chains with a CSC scatter run it in
// atomic mode, whose accumulation order is nondeterministic, so they agree up
// to floating-point reassociation.
func TestCompiledMatchesSequentialWalkParallel(t *testing.T) {
	for name, mk := range combos {
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := icoParams()
			p.ReuseRatio = reuse
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			walk(ks, sched)
			want := snap()
			r, err := compileUnpacked(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			for rep := 0; rep < 3; rep++ {
				stC := mustRun(r.Run(threads))
				got := snap()
				if e := sparse.RelErr(got, want); e > 1e-9 || (!scatters(ks) && !bitsSame(got, want)) {
					t.Fatalf("%s reuse %v rep %d: compiled diverges from the walk by %v", name, reuse, rep, e)
				}
				if stC.Barriers != sched.NumSPartitions() {
					t.Fatalf("%s reuse %v: %d barriers, %d s-partitions", name, reuse, stC.Barriers, sched.NumSPartitions())
				}
			}
		}
	}
}

// TestCompiledPartitionedMatchesSequentialWalk: SpTRSV-CSR gathers (no
// scatter), so its per-row arithmetic order is fixed and even parallel
// partitioned runs must be bit-identical to the walk of the same partitioning.
func TestCompiledPartitionedMatchesSequentialWalk(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(400, 5, 9))
	l := a.Lower()
	b := sparse.RandomVec(400, 10)
	x := make([]float64, 400)
	k := kernels.NewSpTRSVCSR(l, b, x)
	lb, err := lbc.Schedule(k.DAG(), threads, lbc.Params{InitialCut: 3, Agg: 10})
	if err != nil {
		t.Fatal(err)
	}
	walk([]kernels.Kernel{k}, asSchedule(lb, k.Iterations()))
	want := append([]float64(nil), x...)
	stC := mustRun(once(threads)(CompilePartitioned([]kernels.Kernel{k}, lb)))
	if !bitsSame(x, want) {
		t.Fatal("partitioned run differs from the walk")
	}
	if stC.Barriers != len(lb.S) {
		t.Fatalf("%d barriers, %d s-partitions", stC.Barriers, len(lb.S))
	}
}

func TestCompiledJointMatchesSequentialWalk(t *testing.T) {
	loops, ks, snap := fusedTrsvMv(350, 11)
	joint, err := dag.JointChain([]*dag.Graph{loops.G[0], loops.G[1]}, []*sparse.CSR{loops.F[0]})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wavefront.Schedule(joint, threads)
	if err != nil {
		t.Fatal(err)
	}
	walk(ks, asSchedule(wf, ks[0].Iterations()))
	want := snap()
	stC := mustRun(once(threads)(CompilePartitioned(ks, wf)))
	if e := sparse.RelErr(snap(), want); e > 1e-9 {
		t.Fatalf("joint compiled diverges from the walk by %v", e)
	}
	if stC.Barriers != len(wf.S) {
		t.Fatalf("%d barriers, %d s-partitions", stC.Barriers, len(wf.S))
	}
}

// TestRunnerSegmentsPaired checks that interleaved schedules actually take
// the fused-pair dispatch path rather than degenerating into thousands of
// one-iteration batch calls.
func TestRunnerSegmentsPaired(t *testing.T) {
	loops, ks, _ := fusedTrsvTrsv(300, 7)
	p := icoParams()
	p.ReuseRatio = 1.5 // force interleaved packing
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Interleaved {
		t.Skip("schedule not interleaved at this reuse ratio")
	}
	r, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	var paired, units int
	r.Units(func(_, g, end int, pair bool) {
		units++
		if pair {
			paired += int(r.prog.SegOff[end] - r.prog.SegOff[g])
		}
	})
	if units >= r.prog.NumSegments() {
		t.Fatalf("no coalescing: %d dispatch units for %d raw segments", units, r.prog.NumSegments())
	}
	if paired == 0 {
		t.Fatal("interleaved trsv-trsv compiled without any fused pair segment")
	}
}

// benchFused builds the acceptance-criteria fixture: the SpTRSV -> SpMV pair
// of a Gauss-Seidel/PCG sweep (both gather kernels, so no atomic scatter
// masks the dispatch cost) on a synthetic banded SPD matrix, scheduled by
// ICO for 8 w-partitions.
func benchFused(b testing.TB, n int, reuse float64) ([]kernels.Kernel, *core.Schedule) {
	b.Helper()
	a := sparse.Must(sparse.BandedSPD(n, 1, 0.4, 1))
	l := a.Lower()
	x := sparse.RandomVec(n, 2)
	rhs := sparse.RandomVec(n, 3)
	y := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, x, y)
	k2 := kernels.NewSpMVPlusCSR(a, y, rhs, z)
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FPattern(a)},
	}
	sched, err := core.ICO(loops, core.Params{
		Threads: 8, ReuseRatio: reuse,
		LBC: lbc.Params{InitialCut: 3, Agg: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	return []kernels.Kernel{k1, k2}, sched
}

// BenchmarkFusedExecutor compares the compiled executor against the
// one-thread schedule walk on the SpTRSV -> SpMV pair at 8 w-partitions: what
// the ladder's last rung costs against the rung above it.
func BenchmarkFusedExecutor(b *testing.B) {
	for _, tc := range []struct {
		name  string
		reuse float64
	}{
		{"separated", 0.5},
		{"interleaved", 1.5},
	} {
		ks, sched := benchFused(b, 40000, tc.reuse)
		r, err := compileUnpacked(ks, sched)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(8)
			}
		})
		b.Run(tc.name+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				walk(ks, sched)
			}
		})
	}
}

// BenchmarkPoolBarrier measures raw barrier round-trip cost: empty bodies,
// so ns/op is pure synchronization.
func BenchmarkPoolBarrier(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run("w"+string(rune('0'+workers)), func(b *testing.B) {
			pl := newPool(workers, 0)
			defer pl.close()
			durs := make([]time.Duration, workers)
			body := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.run(workers, body, durs)
			}
		})
	}
}

// once runs a freshly compiled Runner one time at th threads; a compile error
// comes back as the run's.
func once(th int) func(*Runner, error) (Stats, error) {
	return func(r *Runner, err error) (Stats, error) {
		if err != nil {
			return Stats{}, err
		}
		return r.Run(th)
	}
}

// mustRun unwraps an executor result, panicking on error (which fails the
// test with a stack), keeping single-assignment call sites readable now that
// executors report faults.
func mustRun(st Stats, err error) Stats {
	if err != nil {
		panic(err)
	}
	return st
}

// compileUnpacked binds ks to sched on the compiled-unpacked rung: the
// runner CompileFused would serve a chain that does not pack.
func compileUnpacked(ks []kernels.Kernel, sched *core.Schedule) (*Runner, error) {
	prog, err := core.CompileSchedule(sched, len(ks))
	if err != nil {
		return nil, err
	}
	return NewRunner(ks, prog), nil
}

// compilePacked binds ks to sched through CompileFused and returns the
// runner with the layout it attached; a chain that does not pack is an error.
func compilePacked(ks []kernels.Kernel, sched *core.Schedule) (*Runner, *relayout.Layout, error) {
	art := cache.Artifacts{Schedule: sched}
	r, err := CompileFused(ks, &art, nil)
	if err != nil {
		return nil, nil, err
	}
	if art.Layout == nil {
		return nil, nil, errors.New(art.LayoutErr)
	}
	return r, art.Layout, nil
}
