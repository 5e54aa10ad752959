package exec

import (
	"context"
	"errors"
	"slices"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/relayout"
)

// This file is the compiled executor path. A core.Schedule (or baseline
// partitioning) is flattened once into a core.Program, its loops are bound to
// concrete dispatch bodies, and the hot loop then walks the program's flat
// int32 slices: one kernels.BatchRunner call per segment instead of two
// interface calls per iteration. Interleaved schedules, whose segments
// shred down to a couple of iterations each, are coalesced into fused
// two-kernel spans dispatched through a kernels.PairRunner. The one-thread
// schedule walk (RunScheduleSequential) is the oracle this is tested against.

// pairRunLimit is the average iterations-per-segment below which an
// alternating two-loop span dispatches through a fused pair body instead of
// one batch call per tiny segment.
const pairRunLimit = 8

// Runner executes one compiled schedule. Compile once (at inspection time),
// Run many times: solvers that execute the same schedule per sweep or per
// solver iteration amortize the flattening the way they amortize inspection.
//
// A dispatch unit is either one program segment, run by its loop's batch
// body, or a coalesced span of segments alternating between two loops, run
// by that loop pair's fused body. The program already holds each unit's
// loops, iteration range and stream cursors (SegLoop, SegOff, SegIter and
// the layout's SegEnt), so the runner keeps its bodies per loop and per loop
// pair, and of the units only where the coalesced spans start.
type Runner struct {
	prog *core.Program
	ks   []kernels.Kernel
	// batch[l] is loop l's single-kernel batch body; nil sends each of the
	// loop's iterations through ks[l].Run.
	batch []kernels.BatchRunner
	// pair[l1*len(ks)+l2] holds both rungs' fused bodies of spans
	// alternating loops l1 and l2, set for the loop pairs some coalesced span
	// runs.
	pair []pairBody
	// pairAt holds, ascending, the first program segment of every coalesced
	// span. Every other dispatch unit is one segment.
	pairAt []int32
	// single has bit l set when some dispatch unit is a lone loop-l segment.
	single uint32

	// lay, when non-nil, switches Run to the packed path (AttachLayout,
	// exec/packed.go): packedRun[l] is the packed body matching batch[l], and
	// the spans run pair's packed bodies, both reading lay's streams.
	lay       *relayout.Layout
	packedRun []kernels.PackedKernel
	// spill holds the packed path's scatter loops and their runner-private
	// slot scratch; spillDirty asks the next run to zero the slots first.
	spill      []spillLoop
	spillDirty bool

	// rec, when non-nil, is the attached execution profiler (SetRecorder).
	// Its enable flag is sampled once per run; a disabled recorder costs one
	// atomic load per run, an absent one costs a nil check per run.
	rec *Recorder

	// cfg tunes the private pool of Run and RunContext (Configure).
	cfg Config
}

// pairBody is one loop pair's fused span body on each rung (kernels.FusePair).
type pairBody struct {
	run    kernels.PairRunner
	packed kernels.PackedPairRunner
}

// spanEnd is where the span alternating between the loops of segments g and
// g+1 ends, in a w-partition whose segments end at g1. Consecutive segments
// of a w-partition differ in loop (ProgramBuilder opens a segment on a tag
// change), so the span continues exactly while SegLoop[e] == SegLoop[e-2]:
// with two loops, to the end of the w-partition.
func spanEnd(p *core.Program, g, g1 int32) int32 {
	if p.NumLoops == 2 {
		return g1
	}
	e := g + 2
	for e < g1 && p.SegLoop[e] == p.SegLoop[e-2] {
		e++
	}
	return e
}

// NewRunner binds a compiled program to its kernels, choosing each dispatch
// unit's body: a span alternating between two loops is coalesced when its
// segments are short enough that per-batch dispatch would dominate and the
// loop pair has a fused body.
func NewRunner(ks []kernels.Kernel, prog *core.Program) *Runner {
	k := len(ks)
	r := &Runner{prog: prog, ks: ks, batch: make([]kernels.BatchRunner, k), pair: make([]pairBody, k*k)}
	for i, kn := range ks {
		if b, ok := kn.(kernels.BatchRunner); ok {
			r.batch[i] = b
		}
	}
	hasPair := func(a, b uint8) bool {
		p := &r.pair[int(a)*k+int(b)]
		if p.run == nil { // a pair without a body asks again: a type switch, no allocation
			p.run, p.packed, _ = kernels.FusePair(ks[a], ks[b], int(a))
		}
		return p.run != nil
	}
	// ends[g] is spanEnd(prog, g, g1), one right-to-left pass per
	// w-partition, so that rejecting a span does not rescan it from g+1.
	ends := make([]int32, prog.NumSegments())
	// unit returns the end of the dispatch unit starting at segment g of a
	// w-partition ending at g1, and whether it is a coalesced span.
	unit := func(g, g1 int) (int, bool) {
		if g+1 < g1 {
			end := int(ends[g])
			if iters := int(prog.SegOff[end] - prog.SegOff[g]); iters < (end-g)*pairRunLimit {
				if hasPair(prog.SegLoop[g], prog.SegLoop[g+1]) {
					return end, true
				}
			}
		}
		return g + 1, false
	}
	spans := 0
	for w := 0; w < prog.NumWPartitions(); w++ {
		g0, g1 := int(prog.WSeg[w]), int(prog.WSeg[w+1])
		for g := g1 - 2; g >= g0; g-- {
			ends[g] = int32(g + 2)
			if g+2 < g1 && prog.SegLoop[g+2] == prog.SegLoop[g] {
				ends[g] = ends[g+1]
			}
		}
		for g := g0; g < g1; {
			end, pair := unit(g, g1)
			if pair {
				spans++
			} else {
				r.single |= 1 << prog.SegLoop[g]
			}
			g = end
		}
	}
	r.pairAt = make([]int32, 0, spans)
	for w := 0; w < prog.NumWPartitions(); w++ {
		g1 := int(prog.WSeg[w+1])
		for g := int(prog.WSeg[w]); g < g1; {
			end, pair := unit(g, g1)
			if pair {
				r.pairAt = append(r.pairAt, int32(g))
			}
			g = end
		}
	}
	return r
}

// Units calls fn for every dispatch unit in execution order: w-partition w
// runs program segments [g, end) in one dispatch, through a fused pair body
// when pair is set, else one single-loop batch.
func (r *Runner) Units(fn func(w, g, end int, pair bool)) {
	p := r.prog
	next := 0
	for w := 0; w < p.NumWPartitions(); w++ {
		for g, g1 := p.WSeg[w], p.WSeg[w+1]; g < g1; {
			if next < len(r.pairAt) && r.pairAt[next] == g {
				end := spanEnd(p, g, g1)
				fn(w, int(g), int(end), true)
				g, next = end, next+1
				continue
			}
			fn(w, int(g), int(g+1), false)
			g++
		}
	}
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
func (r *Runner) SetRecorder(rec *Recorder) { r.rec = rec }

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
	if r.lay != nil {
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
	if r.lay != nil {
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
			rec.record(s, partStart, durs[:width], p.WOff[w0:w0+width+1])
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

// runW executes one w-partition, one dispatch per unit.
func (r *Runner) runW(w int) {
	p := r.prog
	g, g1 := p.WSeg[w], p.WSeg[w+1]
	next, _ := slices.BinarySearch(r.pairAt, g)
	for g < g1 {
		l := p.SegLoop[g]
		if next < len(r.pairAt) && r.pairAt[next] == g {
			end := spanEnd(p, g, g1)
			r.pair[int(l)*len(r.ks)+int(p.SegLoop[g+1])].run(p.Iters[p.SegOff[g]:p.SegOff[end]])
			g, next = end, next+1
			continue
		}
		iters := p.Iters[p.SegOff[g]:p.SegOff[g+1]]
		if b := r.batch[l]; b != nil {
			b.RunMany(iters)
		} else {
			k := r.ks[l]
			for _, v := range iters {
				k.Run(int(v & kernels.IterMask))
			}
		}
		g++
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

// CompilePartitioned compiles a baseline partitioning of the joint DAG of
// the kernels ks, whose vertex ids number loop 0's iterations first, then
// loop 1's, and so on; a single kernel's own DAG is the one-loop case. Each
// vertex's (loop, index) is resolved once here instead of per run.
func CompilePartitioned(ks []kernels.Kernel, p *partition.Partitioning) (*Runner, error) {
	off := make([]int, len(ks)+1) // loop l's vertex ids are off[l] .. off[l+1]-1
	for l, k := range ks {
		off[l+1] = off[l] + k.Iterations()
	}
	b, err := core.NewProgramBuilder(len(ks))
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
				loop := 0
				for loop < len(ks)-1 && v >= off[loop+1] {
					loop++
				}
				if err := b.Add(loop, v-off[loop]); err != nil {
					return nil, err
				}
			}
		}
	}
	return NewRunner(ks, b.Finish()), nil
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
