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
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/partition"
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

// RunFusedLegacy executes the fused loops by walking the three-level
// core.Schedule directly, dispatching every iteration through the Kernel
// interface. It is the reference implementation the compiled path
// (CompileFused) is cross-checked against, and the fallback when a schedule
// does not fit the packed Program representation. A worker-body panic (kernel
// breakdown or corrupt schedule) abandons the remaining s-partitions and is
// returned as an *ExecError.
func RunFusedLegacy(ks []kernels.Kernel, sched *core.Schedule, threads int) (Stats, error) {
	return RunFusedLegacyContext(context.Background(), ks, sched, threads)
}

// RunFusedLegacyContext is RunFusedLegacy under cooperative cancellation: a
// context fired mid-run stops at the next s-partition boundary and returns a
// *CancelledError, with every completed s-partition bit-identical to an
// uncancelled run's.
func RunFusedLegacyContext(ctx context.Context, ks []kernels.Kernel, sched *core.Schedule, threads int) (Stats, error) {
	pl := newPool(sched.MaxWidth())
	defer pl.close()
	return runFusedLegacyOnPool(ctx, ks, sched, threads, pl)
}

// RunPartitionedLegacy executes one kernel under a baseline partitioning by
// walking the partition slices directly; reference implementation and
// fallback for CompilePartitioned.
func RunPartitionedLegacy(k kernels.Kernel, p *partition.Partitioning, threads int) (Stats, error) {
	setAtomics([]kernels.Kernel{k}, anyWide(p))
	defer setAtomics([]kernels.Kernel{k}, false)
	var st Stats
	t0 := time.Now()
	k.Prepare()
	pl := newPool(maxWidth(p))
	defer pl.close()
	durs := make([]time.Duration, maxWidth(p))
	for si, sp := range p.S {
		pl.run(len(sp), func(w int) {
			for _, v := range sp[w] {
				k.Run(v)
			}
		}, durs[:len(sp)])
		accumulate(&st, durs[:len(sp)], threads)
		if f := pl.takeFault(); f != nil {
			st.Elapsed = time.Since(t0)
			return st, f.runError(si, -1)
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// RunChain executes kernels one after another (unfused), each under its own
// partitioning. Entries with a nil partitioning run sequentially. The first
// kernel error abandons the rest of the chain.
func RunChain(ks []kernels.Kernel, ps []*partition.Partitioning, threads int) (Stats, error) {
	var st Stats
	t0 := time.Now()
	for i, k := range ks {
		var s Stats
		var err error
		if ps[i] == nil {
			s, err = RunSequentialKernel(k)
		} else {
			s, err = RunPartitioned(k, ps[i], threads)
		}
		st.Barriers += s.Barriers
		st.PotentialGain += s.PotentialGain
		if err != nil {
			st.Elapsed = time.Since(t0)
			return st, err
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// RunChainLegacy is RunChain over the slice-walking partitioned executor.
func RunChainLegacy(ks []kernels.Kernel, ps []*partition.Partitioning, threads int) (Stats, error) {
	var st Stats
	t0 := time.Now()
	for i, k := range ks {
		var s Stats
		var err error
		if ps[i] == nil {
			s, err = RunSequentialKernel(k)
		} else {
			s, err = RunPartitionedLegacy(k, ps[i], threads)
		}
		st.Barriers += s.Barriers
		st.PotentialGain += s.PotentialGain
		if err != nil {
			st.Elapsed = time.Since(t0)
			return st, err
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// RunJointLegacy executes two kernels under a partitioning of their joint
// DAG by testing v < n1 on every vertex; reference implementation and
// fallback for CompileJoint.
func RunJointLegacy(k1, k2 kernels.Kernel, p *partition.Partitioning, threads int) (Stats, error) {
	n1 := k1.Iterations()
	setAtomics([]kernels.Kernel{k1, k2}, anyWide(p))
	defer setAtomics([]kernels.Kernel{k1, k2}, false)
	var st Stats
	t0 := time.Now()
	k1.Prepare()
	k2.Prepare()
	pl := newPool(maxWidth(p))
	defer pl.close()
	durs := make([]time.Duration, maxWidth(p))
	for si, sp := range p.S {
		pl.run(len(sp), func(w int) {
			for _, v := range sp[w] {
				if v < n1 {
					k1.Run(v)
				} else {
					k2.Run(v - n1)
				}
			}
		}, durs[:len(sp)])
		accumulate(&st, durs[:len(sp)], threads)
		if f := pl.takeFault(); f != nil {
			st.Elapsed = time.Since(t0)
			return st, f.runError(si, -1)
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// RunSequentialKernel runs a kernel in plain iteration order, the baseline
// the paper's amortization metric divides by (figure 7). A numerical
// breakdown is returned as the *kernels.BreakdownError itself (there is no
// worker to attribute).
func RunSequentialKernel(k kernels.Kernel) (Stats, error) {
	t0 := time.Now()
	err := kernels.RunSeq(k)
	return Stats{Elapsed: time.Since(t0)}, err
}

func maxWidth(p *partition.Partitioning) int {
	m := 1
	for _, sp := range p.S {
		if len(sp) > m {
			m = len(sp)
		}
	}
	return m
}

func anyWide(p *partition.Partitioning) bool { return maxWidth(p) > 1 }
