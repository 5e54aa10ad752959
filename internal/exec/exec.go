// Package exec is the executor half of the inspector-executor pair: it runs
// fused schedules (core.Schedule) and baseline partitionings
// (partition.Partitioning) on goroutines, one per w-partition, with a
// barrier after every s-partition — the Go equivalent of the paper's
// "#pragma omp parallel for" per s-partition (figure 3).
//
// The executor instruments every barrier with per-w-partition run times and
// reports the OpenMP-potential-gain analogue: thread time lost to load
// imbalance and synchronization, divided by the thread count (paper
// figure 6, bottom).
package exec

import (
	"context"
	"runtime/debug"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// Stats reports one execution.
type Stats struct {
	// Elapsed is the wall-clock executor time.
	Elapsed time.Duration
	// Barriers counts synchronizations (one per s-partition).
	Barriers int
	// PotentialGain is sum over barriers of (max - mean) w-partition run
	// time: the wait time threads spend at barriers, averaged per thread.
	PotentialGain time.Duration
	// Fold is the time the calling goroutine spent between rounds adding the
	// packed scatter loops' spill slots into their targets; part of Elapsed,
	// outside every w-partition's run time.
	Fold time.Duration
}

// AtomicSetter is implemented by kernels whose Run scatters into shared
// vectors and therefore needs atomic accumulation under concurrency
// (SpMV-CSC and SpTRSV-CSC).
type AtomicSetter interface {
	SetAtomic(bool)
}

// setAtomics switches scatter kernels into (or out of) atomic mode. Callers
// arm it from what can actually run concurrently — the pool's worker count
// and the schedule's width — never from the caller's threads argument, which
// only normalizes the potential-gain statistic: every executor sizes its pool
// to the schedule, so a wide schedule runs wide even when threads is 1.
func setAtomics(ks []kernels.Kernel, on bool) {
	for _, k := range ks {
		if a, ok := k.(AtomicSetter); ok {
			a.SetAtomic(on)
		}
	}
}

func accumulate(st *Stats, durs []time.Duration, threads int) {
	st.Barriers++
	var maxD, sum time.Duration
	for _, d := range durs {
		sum += d
		if d > maxD {
			maxD = d
		}
	}
	width := threads
	if width < len(durs) {
		width = len(durs)
	}
	mean := sum / time.Duration(width)
	if maxD > mean {
		st.PotentialGain += maxD - mean
	}
}

// RunInOrder runs the kernels one after another on the calling goroutine, in
// program order: each kernel's Prepare, then its loop in iteration order —
// the arithmetic of combos.Instance.RunSequential, with no schedule, pool or
// barrier (Stats.Barriers is 0). Program order respects every kernel DAG and
// F, so this is the facade ladder's last rung: it needs nothing the inspector
// built. ctx is observed before every kernel: a fired context returns a
// *CancelledError with every earlier kernel complete. A panic out of a kernel
// body abandons the rest and returns as the *ExecError the pool would
// produce, so errors.As still reaches a *kernels.BreakdownError. The rung has
// no s- or w-partitions, so both errors name -1 for them.
func RunInOrder(ctx context.Context, ks []kernels.Kernel) (st Stats, err error) {
	t0 := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			err = (&workerFault{recovered: rec, stack: debug.Stack()}).execError(-1, -1)
		}
		st.Elapsed = time.Since(t0)
	}()
	for _, k := range ks {
		if ctx.Err() != nil {
			return st, newCancelled(ctx)
		}
		k.Prepare()
		for i, n := 0, k.Iterations(); i < n; i++ {
			k.Run(i)
		}
	}
	return st, nil
}

// RunScheduleSequential walks a fused schedule on the calling goroutine:
// Prepare in loop order, then s-partitions, w-partitions and iterations in
// schedule order — no pool, no atomics, no barriers (Stats.Barriers is 0). It
// is the test oracle of a schedule's arithmetic order, which the Runner's
// rungs are checked against; nothing shipped runs it.
// ctx is observed before every s-partition: a fired context returns a
// *CancelledError naming the first s-partition that did not run (-1 when
// none did), every earlier one complete. A panic out of a kernel body — a
// breakdown, or an out-of-range iteration in a corrupt schedule — abandons
// the rest and returns as the *ExecError the pool would produce.
func RunScheduleSequential(ctx context.Context, ks []kernels.Kernel, sched *core.Schedule) (st Stats, err error) {
	if ctx.Err() != nil {
		return Stats{}, newCancelled(ctx)
	}
	t0 := time.Now()
	s, wp := 0, 0 // s-partition and global w-partition in flight
	defer func() {
		if rec := recover(); rec != nil {
			err = (&workerFault{recovered: rec, stack: debug.Stack()}).execError(s, wp)
		}
		st.Elapsed = time.Since(t0)
	}()
	for _, k := range ks {
		k.Prepare()
	}
	for ; s < len(sched.S); s++ {
		if ctx.Err() != nil {
			c := newCancelled(ctx)
			c.SPartition = s
			return st, c
		}
		for _, w := range sched.S[s] {
			for _, it := range w {
				ks[it.Loop].Run(it.Idx)
			}
			wp++
		}
	}
	return st, nil
}
