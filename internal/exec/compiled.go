package exec

import (
	"context"
	"errors"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/relayout"
)

// This file is the compiled executor path. A core.Schedule (or baseline
// partitioning) is flattened once into a core.Program, its single-loop run
// segments are bound to concrete dispatch bodies, and the hot loop then walks
// flat int32 slices: one kernels.BatchRunner call per segment instead of two
// interface calls per iteration. Interleaved schedules, whose segments
// shred down to a couple of iterations each, are coalesced into fused
// two-kernel spans dispatched through a kernels.PairRunner. The one-thread
// schedule walk (RunScheduleSequential) is the oracle this is tested against.

// seg is one dispatch unit of a compiled w-partition: the iteration range
// Iters[lo:hi] plus the cheapest body able to run it. Exactly one of pair,
// batch or k drives dispatch, tried in that order.
type seg struct {
	lo, hi int32
	pair   kernels.PairRunner  // fused two-kernel body for shredded spans
	batch  kernels.BatchRunner // single-kernel batch body
	k      kernels.Kernel      // per-iteration fallback
	loop   uint8               // loop tag of batch/fallback segments
	g0     int32               // first program segment of this dispatch unit
}

// pairRunLimit is the average iterations-per-segment below which an
// alternating two-loop span dispatches through a fused pair body instead of
// one batch call per tiny segment.
const pairRunLimit = 8

// Runner executes one compiled schedule. Compile once (at inspection time),
// Run many times: solvers that execute the same schedule per sweep or per
// solver iteration amortize the flattening the way they amortize inspection.
type Runner struct {
	prog *core.Program
	ks   []kernels.Kernel
	segs []seg
	wSeg []int32 // segs[wSeg[w]:wSeg[w+1]] belong to w-partition w

	// packed, when non-nil, holds the schedule-order stream bindings of every
	// dispatch unit (parallel to segs) into lay and switches Run to the packed
	// path. Set by AttachLayout (exec/packed.go).
	packed []packedSeg
	lay    *relayout.Layout
	// spill holds the packed path's scatter loops and their runner-private
	// slot scratch; spillDirty asks the next run to zero the slots first.
	spill      []spillLoop
	spillDirty bool

	// rec, when non-nil, is the attached execution profiler (SetRecorder).
	// Its enable flag is sampled once per run; a disabled recorder costs one
	// atomic load per run, an absent one costs a nil check per run.
	rec *Recorder
	// wIters caches per-w-partition iteration counts for span labeling,
	// built on first SetRecorder.
	wIters []int32

	// cfg tunes the private pool of Run and RunContext (Configure).
	cfg Config
}

// NewRunner binds a compiled program to its kernels, choosing each segment's
// dispatch body.
func NewRunner(ks []kernels.Kernel, prog *core.Program) *Runner {
	batch := make([]kernels.BatchRunner, len(ks))
	for i, k := range ks {
		if b, ok := k.(kernels.BatchRunner); ok {
			batch[i] = b
		}
	}
	type pairKey struct{ a, b uint8 }
	pairs := map[pairKey]kernels.PairRunner{}
	pairFor := func(a, b uint8) kernels.PairRunner {
		key := pairKey{a, b}
		fn, seen := pairs[key]
		if !seen {
			fn, _ = kernels.FusePair(ks[a], ks[b], int(a), int(b))
			pairs[key] = fn
		}
		return fn
	}
	// spanEnd[g] is where the maximal span alternating between the loops of
	// segments g and g+1 ends. Consecutive segments of a w-partition differ in
	// loop (ProgramBuilder opens a segment on a tag change), so that span
	// continues exactly while SegLoop[e] == SegLoop[e-2], and one right-to-left
	// pass per w-partition finds every end.
	spanEnd := make([]int32, prog.NumSegments())
	// unit returns the end of the dispatch unit starting at segment g of a
	// w-partition ending at g1, and its pair body when the span from g is
	// coalesced: its segments are short enough that per-batch dispatch would
	// dominate.
	unit := func(g, g1 int) (int, kernels.PairRunner) {
		if g+1 < g1 {
			end := int(spanEnd[g])
			if iters := int(prog.SegOff[end] - prog.SegOff[g]); iters < (end-g)*pairRunLimit {
				if fn := pairFor(prog.SegLoop[g], prog.SegLoop[g+1]); fn != nil {
					return end, fn
				}
			}
		}
		return g + 1, nil
	}
	units := 0
	for w := 0; w < prog.NumWPartitions(); w++ {
		g0, g1 := int(prog.WSeg[w]), int(prog.WSeg[w+1])
		for g := g1 - 2; g >= g0; g-- {
			spanEnd[g] = int32(g + 2)
			if g+2 < g1 && prog.SegLoop[g+2] == prog.SegLoop[g] {
				spanEnd[g] = spanEnd[g+1]
			}
		}
		for g := g0; g < g1; units++ {
			g, _ = unit(g, g1)
		}
	}
	r := &Runner{prog: prog, ks: ks, segs: make([]seg, 0, units), wSeg: make([]int32, 1, prog.NumWPartitions()+1)}
	for w := 0; w < prog.NumWPartitions(); w++ {
		g1 := int(prog.WSeg[w+1])
		for g := int(prog.WSeg[w]); g < g1; {
			end, fn := unit(g, g1)
			s := seg{lo: prog.SegOff[g], hi: prog.SegOff[end], pair: fn, g0: int32(g)}
			if fn == nil {
				s.loop = prog.SegLoop[g]
				if b := batch[s.loop]; b != nil {
					s.batch = b
				} else {
					s.k = ks[s.loop]
				}
			}
			r.segs = append(r.segs, s)
			g = end
		}
		r.wSeg = append(r.wSeg, int32(len(r.segs)))
	}
	return r
}

// Program exposes the compiled representation, for tests and tooling.
func (r *Runner) Program() *core.Program { return r.prog }

// SetRecorder attaches (or, with nil, detaches) an execution profiler: every
// subsequent Run whose start observes the recorder enabled records one Span
// per w-partition plus per-worker busy/wait into the recorder's preallocated
// buffers. The recorder applies to both the compiled and packed paths — the
// instrumentation rides the per-barrier duration gathering the executor
// already performs for Stats, so enabling adds no extra timing syscalls
// beyond one clock read per s-partition.
func (r *Runner) SetRecorder(rec *Recorder) {
	r.rec = rec
	if rec != nil && r.wIters == nil {
		p := r.prog
		r.wIters = make([]int32, p.NumWPartitions())
		for w := 0; w < p.NumWPartitions(); w++ {
			r.wIters[w] = p.SegOff[p.WSeg[w+1]] - p.SegOff[p.WSeg[w]]
		}
	}
}

// Run executes the compiled schedule: Prepare in loop order, one barrier per
// s-partition. On the compiled-unpacked path scatter kernels run in atomic
// mode iff two w-partitions can actually run at once (pool and schedule both
// wider than one); on the packed path they never do — contended updates go
// to this runner's spill slots, folded by the caller after each barrier, so
// for one layout the results are the same bits on every run at every pool
// width. A worker-body panic — a kernel breakdown or an
// out-of-range iteration in a corrupt program — abandons the remaining
// s-partitions and returns as an *ExecError; the Runner itself stays usable
// (the fault channel is re-armed, the pool torn down as always).
func (r *Runner) Run(threads int) (Stats, error) {
	return r.RunContext(context.Background(), threads)
}

// RunContext is Run under cooperative cancellation: when ctx is cancelled
// (or its deadline expires) mid-run, the current s-partition completes, every
// worker arrives at the barrier, and the run returns a *CancelledError within
// one s-partition round. Completed s-partitions are bit-identical to an
// uncancelled run's; the Runner stays usable. A context that can never fire
// (context.Background()) costs nothing; an armed one costs one watcher
// goroutine per run and no extra branch in the round loop.
func (r *Runner) RunContext(ctx context.Context, threads int) (Stats, error) {
	pl := newPool(r.prog.MaxWidth, r.cfg.Watchdog)
	defer pl.close()
	return r.runOnPool(ctx, pl, threads)
}

// runOnPool is Run's body over a caller-supplied pool, which must be at least
// prog.MaxWidth wide and exclusively owned for the duration of the call.
func (r *Runner) runOnPool(ctx context.Context, pl *pool, threads int) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, newCancelled(ctx)
	}
	watch := pl.watchCancel(ctx)
	defer watch.finish(pl)
	p := r.prog
	if r.packed != nil {
		r.bindSpill()
	} else {
		// The pool, not the caller's thread budget, decides whether two
		// w-partitions can run at once.
		setAtomics(r.ks, pl.workers > 1 && p.MaxWidth > 1)
		defer setAtomics(r.ks, false)
	}
	var st Stats
	t0 := time.Now()
	for _, k := range r.ks {
		k.Prepare()
	}
	durs := make([]time.Duration, p.MaxWidth)
	runBody := r.runW
	if r.packed != nil {
		runBody = r.runWPacked
	}
	// Sample the profiler flag once per run: a flip mid-schedule applies to
	// the next run, and the disabled hot loop pays nothing per barrier.
	rec := r.rec
	recording := rec != nil && rec.Enabled()
	if recording {
		rec.beginRun()
	}
	for s := 0; s < p.NumSPartitions(); s++ {
		w0 := int(p.SOff[s])
		width := int(p.SOff[s+1]) - w0
		if width == 0 {
			accumulate(&st, durs[:0], threads)
			continue
		}
		var partStart time.Duration
		if recording {
			partStart = time.Since(t0)
		}
		pl.run(width, func(w int) { runBody(w0 + w) }, durs[:width])
		accumulate(&st, durs[:width], threads)
		// Fold before looking at the fault: a cancelled round completed, and
		// its outputs must be those of an uncancelled run; a faulted round's
		// slots must not leak into the next run.
		fold := r.foldSpill(s)
		st.Fold += fold
		if recording {
			rec.fold += fold
			rec.record(s, partStart, durs[:width], r.wIters[w0:w0+width])
		}
		if f := pl.takeFault(); f != nil {
			// Synthetic faults (cancellation, watchdog) carry worker -1 and
			// have no w-partition to attribute.
			wp := -1
			if f.worker >= 0 {
				wp = w0 + f.worker
			}
			r.spillDirty = f.cancel == nil
			st.Elapsed = time.Since(t0)
			return st, f.runError(s, wp)
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// runW executes one w-partition, one dispatch per segment.
func (r *Runner) runW(w int) {
	for g := r.wSeg[w]; g < r.wSeg[w+1]; g++ {
		sg := &r.segs[g]
		iters := r.prog.Iters[sg.lo:sg.hi]
		switch {
		case sg.pair != nil:
			sg.pair(iters)
		case sg.batch != nil:
			sg.batch.RunMany(iters)
		default:
			k := sg.k
			for _, v := range iters {
				k.Run(int(v & kernels.IterMask))
			}
		}
	}
}

// CompileFused is the one path from an inspected schedule to the runner it is
// served from: compile → re-layout → bind. art holds what is already built —
// at least the schedule; a cache entry also the program and the layout — and
// CompileFused builds each missing stage in that order, calling stage (when
// non-nil) with the stage's name ("compile", "relayout") and duration after
// it ran. A stage that fails leaves its artifact nil and its reason in art; a
// stage whose reason is already there is not retried. Without a program there
// is no runner, and the error says why (the schedule exceeds the compiled
// representation, which nothing the library builds does). Without a layout,
// or with one that does not attach, the runner stays on the compiled rung:
// the factorization chains, whose kernels rewrite a packed source mid-run,
// run there.
func CompileFused(ks []kernels.Kernel, art *cache.Artifacts, stage func(name string, d time.Duration)) (*Runner, error) {
	if stage == nil {
		stage = func(string, time.Duration) {}
	}
	if art.Program == nil {
		if art.ProgramErr != "" {
			return nil, errors.New(art.ProgramErr)
		}
		t0 := time.Now()
		prog, err := core.CompileSchedule(art.Schedule, len(ks))
		if err != nil {
			art.ProgramErr = err.Error()
			stage("compile", time.Since(t0))
			return nil, err
		}
		art.Program = prog
		stage("compile", time.Since(t0))
	}
	if art.Layout == nil && art.LayoutErr == "" {
		t0 := time.Now()
		if lay, err := relayout.Build(art.Program, ks); err != nil {
			art.LayoutErr = err.Error()
		} else {
			art.Layout = lay
		}
		stage("relayout", time.Since(t0))
	}
	r := NewRunner(ks, art.Program)
	if art.Layout != nil {
		if err := r.AttachLayout(art.Layout); err != nil {
			art.Layout, art.LayoutErr = nil, err.Error()
		}
	}
	return r, nil
}

// CompilePartitioned compiles a baseline partitioning of a single kernel's
// DAG (everything is loop 0).
func CompilePartitioned(k kernels.Kernel, p *partition.Partitioning) (*Runner, error) {
	b, err := core.NewProgramBuilder(1)
	if err != nil {
		return nil, err
	}
	for _, sp := range p.S {
		b.StartS()
		for _, wp := range sp {
			if err := b.StartW(); err != nil {
				return nil, err
			}
			for _, v := range wp {
				if err := b.Add(0, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return NewRunner([]kernels.Kernel{k}, b.Finish()), nil
}

// CompileJoint compiles a partitioning of the joint DAG of two kernels
// (vertices 0..n1-1 are loop-1 iterations, n1.. are loop-2 iterations),
// resolving the v < n1 split once instead of per iteration per run.
func CompileJoint(k1, k2 kernels.Kernel, p *partition.Partitioning) (*Runner, error) {
	n1 := k1.Iterations()
	b, err := core.NewProgramBuilder(2)
	if err != nil {
		return nil, err
	}
	for _, sp := range p.S {
		b.StartS()
		for _, wp := range sp {
			if err := b.StartW(); err != nil {
				return nil, err
			}
			for _, v := range wp {
				loop, idx := 0, v
				if v >= n1 {
					loop, idx = 1, v-n1
				}
				if err := b.Add(loop, idx); err != nil {
					return nil, err
				}
			}
		}
	}
	return NewRunner([]kernels.Kernel{k1, k2}, b.Finish()), nil
}

// BenchBarrier runs rounds empty barrier rounds of the given width on a
// fresh pool and returns the mean cost per barrier: the ns_per_barrier term
// of bench/'s run-time model.
func BenchBarrier(workers, rounds int) time.Duration {
	pl := newPool(workers, 0)
	defer pl.close()
	durs := make([]time.Duration, workers)
	body := func(int) {}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		pl.run(workers, body, durs)
	}
	return time.Since(t0) / time.Duration(rounds)
}
