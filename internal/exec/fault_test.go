package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The fault-channel contract under test: a worker-body panic — whether an
// out-of-bounds iteration from a corrupt schedule or a typed numerical
// breakdown — must surface as an error from the executor, never as a hung
// barrier or a crashed process, at any worker count, and the fixtures must
// stay runnable afterwards.

// watchdog runs fn and fails the test if it does not return within the
// deadline — the symptom of a worker dying short of the barrier.
func watchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("executor did not return within %v: barrier hang on worker fault", d)
		return nil
	}
}

var faultWorkerCounts = []int{1, 2, 4, 8}

// TestSequentialWalkSurvivesCorruptSchedule: the walk has no program to
// validate against, so an out-of-range iteration panics inside a kernel body;
// it must come back as an *ExecError naming where it happened, and the
// kernels — there is no runner to re-arm — must walk cleanly once the schedule
// is repaired.
func TestSequentialWalkSurvivesCorruptSchedule(t *testing.T) {
	for _, th := range faultWorkerCounts {
		loops, ks, snap := fusedTrsvMv(300, int64(th))
		p := icoParams()
		p.Threads = th
		sched, err := core.ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		walk(ks, sched)
		want := snap()
		// Corrupt the last iteration of the last w-partition, far beyond the
		// 300-row fixture, so every earlier s-partition runs normally first.
		lastS, lastW := len(sched.S)-1, -1
		for _, sp := range sched.S {
			lastW += len(sp)
		}
		sp := sched.S[lastS]
		wp := sp[len(sp)-1]
		saved := wp[len(wp)-1]
		wp[len(wp)-1].Idx = 1 << 20
		_, err = RunScheduleSequential(context.Background(), ks, sched)
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("threads=%d: corrupt schedule returned %T (%v), want *ExecError", th, err, err)
		}
		if ee.Breakdown() != nil {
			t.Fatalf("threads=%d: out-of-bounds fault misreported as breakdown", th)
		}
		if len(ee.Stack) == 0 {
			t.Fatalf("threads=%d: fault carries no stack", th)
		}
		if ee.SPartition != lastS || ee.WPartition != lastW || ee.Watchdog {
			t.Fatalf("threads=%d: fault attributed to s=%d w=%d watchdog=%v, want s=%d w=%d", th, ee.SPartition, ee.WPartition, ee.Watchdog, lastS, lastW)
		}
		wp[len(wp)-1] = saved
		walk(ks, sched)
		if !bitsSame(snap(), want) {
			t.Fatalf("threads=%d: walk after the fault differs from the walk before it", th)
		}
	}
}

func TestCompiledExecutorSurvivesCorruptProgram(t *testing.T) {
	for _, th := range faultWorkerCounts {
		loops, ks, _ := fusedTrsvMv(300, int64(th))
		p := icoParams()
		p.Threads = th
		sched, err := core.ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := compileUnpacked(ks, sched)
		if err != nil {
			t.Fatal(err)
		}
		prog := r.Program()
		last := len(prog.Iters) - 1
		saved := prog.Iters[last]
		prog.Iters[last] = kernels.PackIter(0, 1<<20)
		err = watchdog(t, 10*time.Second, func() error {
			_, err := r.Run(th)
			return err
		})
		if err == nil {
			t.Fatalf("threads=%d: corrupt program executed without error", th)
		}
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("threads=%d: error %T is not *ExecError: %v", th, err, err)
		}
		if ee.WPartition < 0 {
			t.Fatalf("threads=%d: compiled path lost the w-partition attribution", th)
		}

		// The Runner must be re-armed: restoring the program makes the same
		// Runner produce a clean run again.
		prog.Iters[last] = saved
		if _, err := r.Run(th); err != nil {
			t.Fatalf("threads=%d: runner unusable after fault: %v", th, err)
		}
	}
}

func TestFaultAbandonsRemainingRounds(t *testing.T) {
	// Corrupt the FIRST s-partition; iterations of later rounds must not run.
	loops, ks, _ := fusedTrsvTrsv(300, 5)
	p := icoParams()
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.S) < 2 {
		t.Skip("schedule has a single s-partition")
	}
	sched.S[0][0][0].Idx = 1 << 20
	st, err := once(threads)(compileUnpacked(ks, sched))
	if err == nil {
		t.Fatal("corrupt first round executed without error")
	}
	if st.Barriers != 1 {
		t.Fatalf("executor ran %d barriers after a first-round fault, want 1", st.Barriers)
	}
	_ = loops
}

func TestBreakdownSurfacesThroughParallelExecutor(t *testing.T) {
	// A zero diagonal makes SpTRSV breakdown; through the fused executor the
	// error must arrive as *ExecError wrapping the *kernels.BreakdownError.
	a := sparse.Must(sparse.RandomSPD(200, 4, 77))
	l := a.Lower()
	// Zero a late diagonal so several rounds complete first.
	row := 190
	for p := l.P[row]; p < l.P[row+1]; p++ {
		if l.I[p] == row {
			l.X[p] = 0
		}
	}
	b := sparse.RandomVec(200, 3)
	x := make([]float64, 200)
	k := kernels.NewSpTRSVCSR(l, b, x)
	loops := &core.Loops{G: []*dag.Graph{k.DAG()}}
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, run func() (Stats, error)) {
		err := watchdog(t, 10*time.Second, func() error {
			_, err := run()
			return err
		})
		if err == nil {
			t.Fatalf("%s: zero-diagonal TRSV ran without error", label)
		}
		var bd *kernels.BreakdownError
		if !errors.As(err, &bd) {
			t.Fatalf("%s: error does not unwrap to BreakdownError: %v", label, err)
		}
		if bd.Row != row {
			t.Fatalf("%s: breakdown at row %d, want %d", label, bd.Row, row)
		}
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: breakdown not carried by *ExecError: %v", label, err)
		}
	}
	ks := []kernels.Kernel{k}
	for _, th := range faultWorkerCounts {
		check(fmt.Sprintf("threads=%d", th), func() (Stats, error) { return once(th)(compileUnpacked(ks, sched)) })
	}
	// The one-thread walk recovers the same panic into the same typed error.
	check("walk", func() (Stats, error) { return RunScheduleSequential(context.Background(), ks, sched) })
}

// hookUnit wraps the packed bodies so that before runs ahead of the first
// dispatch unit of w-partition w and after behind it (either may be nil), and
// returns the undo.
func hookUnit(r *Runner, w int32, before, after func()) (undo func()) {
	first := &r.prog.Iters[r.prog.WOff[w]]
	call := func(iters []int32, f func()) {
		if f != nil && &iters[0] == first {
			f()
		}
	}
	savedRun, savedPair := slices.Clone(r.packedRun), slices.Clone(r.pair)
	for i, pb := range r.pair {
		if pair := pb.packed; pair != nil {
			r.pair[i].packed = func(iters []int32, s1, s2 *kernels.PackedStream, e1, i1, e2, i2 int) {
				call(iters, before)
				pair(iters, s1, s2, e1, i1, e2, i2)
				call(iters, after)
			}
		}
	}
	for l, run := range r.packedRun {
		if run != nil {
			r.packedRun[l] = hookedRunner{run, func(iters []int32) { call(iters, before) }, func(iters []int32) { call(iters, after) }}
		}
	}
	return func() { copy(r.packedRun, savedRun); copy(r.pair, savedPair) }
}

type hookedRunner struct {
	kernels.PackedKernel
	before, after func([]int32)
}

func (h hookedRunner) RunManyPacked(iters []int32, s *kernels.PackedStream, ent, it int) {
	h.before(iters)
	h.PackedKernel.RunManyPacked(iters, s, ent, it)
	h.after(iters)
}

// TestPackedScatterCleanAfterCancelAndFault: the spill slots of the packed
// scatter loops are runner state that outlives a run, so an interrupted run
// must not leak partial sums into the next one. A run is cancelled inside
// every s-partition in turn (the round completes and is folded, the rest never
// start) and a worker is made to panic after its w-partition wrote its slots;
// after each, a clean run must return the bits of a runner that never saw
// either.
func TestPackedScatterCleanAfterCancelAndFault(t *testing.T) {
	for name, mk := range scatterFixtures() {
		loops, ks, snap := mk()
		sched, err := core.ICO(loops, icoParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, _, err := compilePacked(ks, sched)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustRun(fresh.Run(threads))
		want := snap()

		r, _, err := compilePacked(ks, sched)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := r.Program()
		pl := NewPool(prog.MaxWidth, 0)
		clean := func(what string) {
			t.Helper()
			if _, err := r.RunOn(pl, threads); err != nil {
				t.Fatalf("%s: clean run after %s: %v", name, what, err)
			}
			if !bitsSame(snap(), want) {
				t.Fatalf("%s: clean run after %s diverged from a fresh runner", name, what)
			}
		}
		for s := 0; s < prog.NumSPartitions(); s++ {
			// The last w-partition of the round, so every other one has
			// (most likely) already filled its slots.
			w := prog.SOff[s+1] - 1

			ctx, cancel := context.WithCancel(context.Background())
			undo := hookUnit(r, w, func() {
				cancel()
				for pl.p.fault.Load() == nil { // until the watcher installed it
					runtime.Gosched()
				}
			}, nil)
			_, err := r.RunOnContext(ctx, pl, threads)
			undo()
			var c *CancelledError
			if !errors.As(err, &c) || c.SPartition != s {
				t.Fatalf("%s: cancel inside s-partition %d returned %v", name, s, err)
			}
			clean("a cancel")

			undo = hookUnit(r, w, nil, func() { panic("fault_test: injected panic") })
			_, err = r.RunOn(pl, threads)
			undo()
			var ee *ExecError
			if !errors.As(err, &ee) || ee.SPartition != s {
				t.Fatalf("%s: panic inside s-partition %d returned %v", name, s, err)
			}
			for _, sp := range r.spill {
				for i, v := range sp.slots {
					if v != 0 {
						t.Fatalf("%s: slot %d = %v after the faulted round was folded", name, i, v)
					}
				}
			}
			clean("a worker panic")
		}
		pl.Close()
	}
}
