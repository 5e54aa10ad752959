package sparsefusion

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/telemetry"
)

// Report describes one execution of a fused operation.
type Report struct {
	// Time is the executor wall-clock time.
	Time time.Duration
	// Barriers counts synchronizations performed.
	Barriers int
	// BarrierWait is the load-imbalance cost summed over those barriers: for
	// each s-partition, the gap between the slowest worker and the mean. It is
	// the time the average worker spent waiting at barriers, which the
	// inspector's balancing (LBC's bins, ICO's slack vertices) exists to shrink.
	BarrierWait time.Duration
	// GFlops is the achieved floating-point rate.
	GFlops float64
}

// ExecMode names one rung of the executor ladder an Operation can run on,
// from fastest to most conservative.
type ExecMode string

const (
	// ModePacked executes the compiled schedule against schedule-order
	// operand streams (the re-layout executor).
	ModePacked ExecMode = "packed"
	// ModeCompiled executes the schedule compiled to flat programs, reading
	// operands in matrix order.
	ModeCompiled ExecMode = "compiled"
	// ModeSequential runs the kernels one after another in program order on
	// the calling goroutine — one thread, no worker set, no barriers, no
	// schedule — the last rung of the ladder.
	ModeSequential ExecMode = "sequential"
)

// Demotion records one step down the executor ladder: which rung was
// abandoned, which replaced it, and why.
type Demotion struct {
	From, To ExecMode
	Reason   string
}

// Health describes the executor state of an Operation or Session: the rung
// it currently runs on and every demotion taken since construction (at open,
// when there is no packed layout, or after a run-time executor fault).
type Health struct {
	Mode      ExecMode
	Demotions []Demotion
}

// execState is the executor half shared by Operation and Session: the kernel
// instance holding the mutable vectors, the immutable inspection artifacts
// (compiled program, packed layout), and the mutable ladder state. The
// program is the one run-time form of the schedule, and the last rung needs
// not even that: nothing the state runs asks for the fusion input the
// inspector read or the tree schedule it wrote.
//
// mu guards the ladder state (runner, layout, demotions) so Health may be
// polled from a monitoring goroutine while Run executes; Run itself must not
// be called concurrently on one execState — concurrency comes from multiple
// Sessions, each with its own state.
type execState struct {
	inst *combos.Instance
	// prog is the compiled flat form, shared (immutably) with every session
	// and cache consumer.
	prog *core.Program
	th   int
	// watchdog is the executor tuning carried from Options, applied to every
	// runner this state builds — including the rebuilt runner of a session
	// bound to shared artifacts — and to the worker set a solve starts.
	watchdog time.Duration
	// layErr records why the packed layout is absent, for demotion records
	// of sessions derived from this state.
	layErr string

	// id is the process-unique identity demotion records and lifecycle
	// events carry; tr is the attached tracer (nil-safe).
	id int64
	tr *Tracer

	mu sync.Mutex
	// runner binds this state's kernels to prog (with packed streams attached
	// while on the packed rung); nil once demoted to the sequential rung.
	runner *exec.Runner
	// layout is the packed re-layout the runner has attached; nil otherwise.
	layout    *relayout.Layout
	demotions []Demotion
	// demSeen is how many demotions a Server has already harvested into its
	// log, or that it must not (guarded by mu alongside demotions).
	demSeen int
}

// demote appends open-time demotion records and emits their trace events.
// They stay in Health, but demSeen moves past them: a Server harvests only
// the demotions a run takes, so an operation that opens on the compiled rung
// (a factor chain cannot pack) does not make it "degraded". Caller must NOT
// hold e.mu (construction-time callers are single-threaded; run-time callers
// append under mu themselves and emit separately).
func (e *execState) demote(ds ...Demotion) {
	e.demotions = append(e.demotions, ds...)
	e.demSeen = len(e.demotions)
	e.emitDemotions(ds)
}

// emitDemotions traces demotions on the attached tracer, if any.
func (e *execState) emitDemotions(ds []Demotion) {
	t := e.tr.raw()
	if t == nil {
		return
	}
	for _, d := range ds {
		t.Emit("session.demote",
			telemetry.Int("session", e.id),
			telemetry.String("from", string(d.From)),
			telemetry.String("to", string(d.To)),
			telemetry.String("reason", d.Reason))
	}
}

// newExecState is the state of a new operation or solver over inst, tuned by
// opts, before anything is bound.
func newExecState(inst *combos.Instance, opts Options) execState {
	return execState{inst: inst, th: opts.threads(), watchdog: opts.Watchdog, id: nextStateID.Add(1), tr: opts.Tracer}
}

// open resolves this state's artifact chain and binds the executor ladder to
// it. With a cache it looks up first: a hit binds the shared artifacts and
// never asks for the fusion input; a miss builds it, inspects, and builds and
// binds the chain under the cache's singleflight. Without one it inspects. The
// fusion input is built at most once, for whichever of inspection and the disk
// tier's validation asks first, and dropped when open returns. One op.open
// event says which it was and what the open cost since t0.
func (e *execState) open(t0 time.Time, opts Options, fp cache.Key) error {
	var loops *core.Loops
	var reuse float64
	input := func() (*core.Loops, float64) {
		if loops == nil {
			loops, reuse = e.fusion()
		}
		return loops, reuse
	}
	inspect := func() (*core.Schedule, error) {
		loops, reuse := input()
		return e.inspect(loops, reuse)
	}
	outcome := "off"
	if opts.Cache == nil {
		sched, err := inspect()
		if err != nil {
			return err
		}
		if _, err := e.bindArtifacts(cache.Artifacts{Schedule: sched}, false); err != nil {
			return err
		}
	} else {
		outcome = "hit"
		entry, err := opts.Cache.c.GetOrBuild(fp, cache.Builder{
			Inspect: inspect,
			Validate: func(s *core.Schedule) error {
				l, _ := input()
				return l.Validate(s)
			},
			Complete: func(s *core.Schedule) (cache.Artifacts, error) {
				outcome = "miss"
				return e.bindArtifacts(cache.Artifacts{Schedule: s}, false)
			},
		})
		if err != nil {
			return err
		}
		if outcome == "hit" {
			if _, err := e.bindArtifacts(entry.Artifacts, true); err != nil {
				return err
			}
		}
	}
	if t := e.tr.raw(); t != nil {
		t.Emit("op.open",
			telemetry.Int("op", e.id),
			telemetry.String("combo", e.inst.Name),
			telemetry.String("cache", outcome),
			telemetry.String("fp", hexPrefix(fp)),
			telemetry.Dur("dur_ns", time.Since(t0)))
	}
	return nil
}

// openBuilt opens a solver chain whose constructor built the fusion input
// (the instance's Loops) in built: it traces that build, opens, and releases
// the input, since running needs the program and the kernels alone.
func (e *execState) openBuilt(t0 time.Time, built time.Duration, opts Options, fp cache.Key) error {
	e.traceDAGBuild(e.inst.Loops, built)
	if err := e.open(t0, opts, fp); err != nil {
		return err
	}
	e.inst.Release()
	return nil
}

// fusion returns the inspector's input over this state's kernels — the
// per-kernel DAGs and F (Loops) and the reuse ratio. The state keeps none of
// it: an operation's instance builds it afresh for each caller, and a solver
// chain's returns the Loops it was built with until open releases them
// (combos.Instance.Release). Only a build that actually ran is traced.
func (e *execState) fusion() (*core.Loops, float64) {
	t0 := time.Now()
	loops, reuse, built := e.inst.Fusion()
	if built {
		e.traceDAGBuild(loops, time.Since(t0))
	}
	return loops, reuse
}

// traceDAGBuild emits inspect.dag_build, the one event every build of the
// fusion input reports it with: the problem size, the edges of the kernel
// DAGs and what building them took.
func (e *execState) traceDAGBuild(loops *core.Loops, d time.Duration) {
	t := e.tr.raw()
	if t == nil {
		return
	}
	edges := 0
	for _, g := range loops.G {
		edges += g.NumEdges()
	}
	t.Emit("inspect.dag_build",
		telemetry.Int("op", e.id),
		telemetry.String("combo", e.inst.Name),
		telemetry.Int("n", int64(loops.G[0].N)),
		telemetry.Int("dag_edges", int64(edges)),
		telemetry.Dur("dur_ns", d))
}

// inspect runs ICO over the fusion input; a tracer sees the stage breakdown.
func (e *execState) inspect(loops *core.Loops, reuse float64) (*core.Schedule, error) {
	params := core.Params{Threads: e.th, ReuseRatio: reuse}
	if e.tr == nil {
		return core.ICO(loops, params)
	}
	t := time.Now()
	sched, tm, err := core.ICOTimed(loops, params)
	if err != nil {
		return nil, err
	}
	e.tr.raw().Emit("inspect.ico",
		telemetry.Int("op", e.id),
		telemetry.Dur("dur_ns", time.Since(t)),
		telemetry.Dur("setup_ns", tm.Setup),
		telemetry.Dur("lbc_ns", tm.Head),
		telemetry.Dur("pairing_ns", tm.Pairing),
		telemetry.Dur("merge_ns", tm.Merge),
		telemetry.Dur("slack_ns", tm.Slack),
		telemetry.Dur("pack_ns", tm.Pack),
		telemetry.Int("s_partitions", int64(sched.NumSPartitions())),
		telemetry.Bool("interleaved", sched.Interleaved))
	return sched, nil
}

// traceStages returns the stage hook exec.CompileFused reports the artifacts
// this state builds to: one inspect.compile and one inspect.relayout event,
// with duration and outcome read from art. Nil without a tracer.
func (e *execState) traceStages(art *cache.Artifacts) func(string, time.Duration) {
	t := e.tr.raw()
	if t == nil {
		return nil
	}
	return func(stage string, d time.Duration) {
		op, dur := telemetry.Int("op", e.id), telemetry.Dur("dur_ns", d)
		switch {
		case stage == "compile" && art.Program == nil:
			t.Emit("inspect.compile", op, dur, telemetry.String("err", art.ProgramErr))
		case stage == "compile":
			t.Emit("inspect.compile", op, dur, telemetry.Int("iters", int64(len(art.Program.Iters))))
		case art.Layout == nil:
			t.Emit("inspect.relayout", op, dur, telemetry.String("err", art.LayoutErr))
		default:
			// What the no-atomics scatter costs: of the scatter updates per
			// run, how many go to private slots, and how many adds fold them
			// back. And how many loops read another loop's stream.
			var entries, redirected, slots, folds, shared int
			for l, sc := range art.Layout.Scatter {
				if sc != nil {
					entries += sc.Entries
					redirected += sc.Redirected
					slots += sc.Slots
					folds += len(sc.FoldTarget)
				}
				if art.Layout.Owner(l) != l {
					shared++
				}
			}
			t.Emit("inspect.relayout", op, dur,
				telemetry.Int("scatter_entries", int64(entries)),
				telemetry.Int("scatter_redirected", int64(redirected)),
				telemetry.Int("scatter_slots", int64(slots)),
				telemetry.Int("scatter_fold_entries", int64(folds)),
				telemetry.Int("shared_loops", int64(shared)))
		}
	}
}

// bindArtifacts builds this state's executor ladder from an artifact chain —
// exec.CompileFused builds the stages art lacks and binds the runner — and
// records a demotion when there is no packed layout. It returns the chain as
// bound, or the error of a schedule the compiled representation refuses
// (one with 2^27 or more iterations per loop, which does not fit in memory).
// With shared set the chain may come from another tenant (the cache, or a
// parent operation): the schedule and program depend only on the sparsity
// pattern and are shared as-is, but the packed layout baked in matrix values,
// so it is verified against this state's kernels and rebuilt privately on a
// mismatch.
func (e *execState) bindArtifacts(art cache.Artifacts, shared bool) (cache.Artifacts, error) {
	if shared && art.Layout != nil {
		if sum, ok := e.inst.SourceSum(); !ok || art.Layout.VerifySum(sum) != nil {
			art.Layout = nil
		}
	}
	r, err := exec.CompileFused(e.inst.Kernels, &art, e.traceStages(&art))
	if err != nil {
		return art, err
	}
	r.Configure(exec.Config{Watchdog: e.watchdog})
	e.prog, e.runner, e.layErr = art.Program, r, art.LayoutErr
	if r.Layout() == nil {
		e.demote(Demotion{From: ModePacked, To: ModeCompiled, Reason: art.LayoutErr})
		return art, nil
	}
	e.layout = art.Layout
	return art, nil
}

// modeLocked reads the current rung; e.mu must be held.
func (e *execState) modeLocked() ExecMode {
	switch {
	case e.runner == nil:
		return ModeSequential
	case e.runner.Layout() != nil:
		return ModePacked
	default:
		return ModeCompiled
	}
}

// Mode returns the executor rung currently run on.
func (e *execState) Mode() ExecMode {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.modeLocked()
}

// Health reports the current executor rung and the demotions taken to reach
// it. It is safe to poll from a monitoring goroutine while Run executes:
// demotion recording and reads share a mutex. The demotions are copied so
// callers never alias internal state, but only when any exist — the common
// healthy case allocates nothing.
func (e *execState) Health() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := Health{Mode: e.modeLocked()}
	if len(e.demotions) > 0 {
		h.Demotions = append([]Demotion(nil), e.demotions...)
	}
	return h
}

// SetInput overwrites the input vector. Matrix-only combinations
// (DscalIlu0, DscalIc0) have no input vector and return an error.
func (e *execState) SetInput(x []float64) error {
	if e.inst.Input == nil {
		return fmt.Errorf("sparsefusion: %s takes no input vector", e.inst.Name)
	}
	if len(x) != len(e.inst.Input) {
		return fmt.Errorf("sparsefusion: input length %d, want %d", len(x), len(e.inst.Input))
	}
	copy(e.inst.Input, x)
	return nil
}

// Output returns a copy of the result (the solution vector, or the factor
// values for factor-only combinations).
func (e *execState) Output() []float64 { return e.inst.Snapshot() }

// ReuseRatio reports the inspector's locality metric (paper section 2.2), as
// the schedule recorded it.
func (e *execState) ReuseRatio() float64 { return e.prog.ReuseRatio }

// Interleaved reports the packing variant the reuse ratio selected.
func (e *execState) Interleaved() bool { return e.prog.Interleaved }

// Barriers returns the number of synchronizations per execution of the fused
// schedule.
func (e *execState) Barriers() int { return e.prog.NumSPartitions() }

// schedule returns the state's schedule in tree form, rebuilt exactly from
// the program.
func (e *execState) schedule() *core.Schedule { return e.prog.Decompile() }

// Run executes the fused schedule once.
//
// Errors are typed: a numerical breakdown inside a kernel (zero pivot,
// non-SPD input, ...) surfaces as a *kernels.BreakdownError wrapped in an
// *ExecError — reach it with errors.As. A non-numerical executor fault
// (a panic out of a worker body, e.g. from a corrupted compiled program)
// demotes the operation one ladder rung — packed to compiled, compiled to
// sequential — and retries; only a fault on the last rung, which reads no
// schedule, is returned. The operation stays usable after any error.
func (e *execState) Run() (Report, error) {
	return e.run(nil, nil)
}

// RunContext is Run under cooperative cancellation. When ctx is cancelled —
// or its deadline expires — while the run is in flight, the run stops at the
// next s-partition boundary and returns a *CancelledError naming it; all
// s-partitions completed before that boundary are bit-identical to an
// uncancelled run's, every worker is parked at the barrier, and the operation
// (or session) is immediately reusable. On the sequential rung the run stops
// at the next kernel boundary instead, and SPartition is -1. Cancellation is
// observed within one s-partition round, or one kernel, and never demotes
// the executor ladder: it says nothing about the artifacts, only about the
// caller's patience.
func (e *execState) RunContext(ctx context.Context) (Report, error) {
	return e.run(ctx, nil)
}

// RunOn is Run under a server's admission control: the execution waits for
// one of the server's worker sets, runs on it, and returns it. At most the
// server's MaxConcurrent executions run at once across all operations and
// sessions sharing the server. A schedule wider than the server's worker
// sets still runs (on a private, per-call worker set), and an operation on
// the sequential rung runs on the calling goroutine with the worker set it
// was admitted on left idle — the admission bound holds either way. Returns
// ErrServerClosed after the server is closed.
func (e *execState) RunOn(sv *Server) (Report, error) {
	return e.RunOnContext(nil, sv)
}

// RunOnContext is RunOn under a deadline: ctx bounds both the wait for a
// worker set (ErrServerOverloaded when the admission queue is full,
// ErrDeadlineExceeded when ctx fires while queued — the run never started)
// and the run itself (a *CancelledError once in flight, with RunContext's
// bit-identity guarantees). A nil ctx means no bound.
func (e *execState) RunOnContext(ctx context.Context, sv *Server) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rep Report
	var runErr error
	t0 := time.Now()
	if err := sv.s.DoContext(ctx, func(pl *exec.Pool) error {
		rep, runErr = e.run(ctx, pl)
		return nil
	}); err != nil {
		// Shed and deadline outcomes are already counted by the admission
		// layer itself (Stats.Shed / Stats.DeadlineExceeded).
		return Report{}, err
	}
	sv.observeSolve(e, time.Since(t0), rep, runErr)
	return rep, runErr
}

func (e *execState) run(ctx context.Context, pl *exec.Pool) (Report, error) {
	st, err := e.runLadder(ctx, pl)
	return Report{
		Time:        st.Elapsed,
		Barriers:    st.Barriers,
		BarrierWait: st.PotentialGain,
		GFlops:      telemetry.GFlops(e.inst.FlopCount(), st.Elapsed),
	}, err
}

// runLadder executes on the current rung, demoting and retrying on
// non-numerical executor faults. With a non-nil pool (a server's, or the one
// a solve keeps), runs whose width fits execute on it instead of spawning a
// private worker set.
func (e *execState) runLadder(ctx context.Context, pl *exec.Pool) (exec.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		e.mu.Lock()
		r := e.runner
		e.mu.Unlock()
		var st exec.Stats
		var err error
		switch {
		case r != nil && pl != nil && e.prog.MaxWidth <= pl.Width():
			st, err = r.RunOnContext(ctx, pl, e.th)
		case r != nil:
			st, err = r.RunContext(ctx, e.th)
		default:
			st, err = exec.RunInOrder(ctx, e.inst.Kernels)
		}
		if err == nil {
			return st, nil
		}
		// A breakdown is a property of the numbers, not the executor: every
		// rung computes the same values, so demoting would only repeat it.
		var b *kernels.BreakdownError
		if errors.As(err, &b) {
			return st, err
		}
		// Cancellation says nothing about the artifacts — only that the
		// caller stopped waiting. Return it without touching the ladder.
		var c *CancelledError
		if errors.As(err, &c) {
			return st, err
		}
		// A watchdog trip indicts the worker (stuck body, pathological
		// scheduling), not the rung: demoting and retrying would re-run on a
		// poisoned worker set. Surface it; the serving layer replaces the set.
		var xe *ExecError
		if errors.As(err, &xe) && xe.Watchdog {
			return st, err
		}
		if r == nil {
			return st, err // already on the last rung
		}
		// The fault came from the packed or compiled artifacts: drop the
		// layout, or the runner and with it the program's order.
		var taken []Demotion
		e.mu.Lock()
		if e.runner == r {
			if r.Layout() != nil {
				r.DetachLayout()
				e.layout = nil
				e.layErr = err.Error()
				taken = []Demotion{{From: ModePacked, To: ModeCompiled, Reason: err.Error()}}
			} else {
				e.runner = nil
				taken = []Demotion{{From: ModeCompiled, To: ModeSequential, Reason: err.Error()}}
			}
			e.demotions = append(e.demotions, taken...)
		}
		e.mu.Unlock()
		e.emitDemotions(taken)
	}
}

// CancelledError is the typed error a cancelled in-flight run returns: the
// run stopped at an s-partition boundary (SPartition), every earlier
// s-partition is bit-identical to an uncancelled run's, and the operation,
// session, and worker set are immediately reusable. Unwrap exposes
// context.Canceled / context.DeadlineExceeded.
type CancelledError = exec.CancelledError

// ExecError is the typed error for a worker-body fault: a recovered panic
// (Recovered, with Breakdown() for numerical breakdowns) or a barrier
// watchdog trip (Watchdog true).
type ExecError = exec.ExecError
