package exec

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// Pool is a reusable spin-barrier worker set. Runner.Run spins up (and tears
// down) a private pool per call, which pays the goroutine spawn, the teardown
// and a cold first handoff on every run. Two callers keep a Pool across runs
// instead. A solver (FusedCG without a server) starts one for the length of
// one solve and holds it (Hold), so its chain passes all start on workers that
// are already running, then closes it. The serving layer keeps a bounded set,
// each checked out by one execution at a time, which caps the spinning
// goroutines at K*width regardless of offered load.
//
// A Pool must be owned exclusively while a run is in flight; the serving
// layer's checkout discipline (internal/serve) and a solve's sequential
// passes guarantee that. Worker faults do not poison the pool — the fault
// channel re-arms after every run, exactly as with Runner-private pools. A
// barrier-watchdog trip does poison it (a straggling worker may still be in
// flight and would corrupt later rounds); Poisoned reports that, and the
// serving layer replaces poisoned pools instead of reusing them. A pool keeps
// nothing of a run once its rounds are done, so an idle Pool pins no runner,
// kernel or vector of the last run it served.
type Pool struct {
	p *pool
}

// NewPool starts a worker set of the given width (clamped to at least 1)
// with a barrier-watchdog bound (0 disables it). A pool whose watchdog trips
// is poisoned: subsequent runs fail fast with a watchdog *ExecError and Close
// waits only the watchdog bound for stragglers before leaking them. Close it
// when done; an unclosed pool leaks width-1 parked goroutines.
func NewPool(width int, watchdog time.Duration) *Pool {
	return &Pool{p: newPool(width, watchdog)}
}

// Width is the maximum schedule width the pool can execute.
func (p *Pool) Width() int { return p.p.workers }

// PoisonForTest marks the pool poisoned exactly as a barrier-watchdog trip
// would, so higher layers (the serving fleet's check-in replacement) can
// exercise their retirement paths without staging a real multi-hundred-
// millisecond stall. Test support only, like BenchBarrier.
func (p *Pool) PoisonForTest() { p.p.poison.Store(true) }

// Poisoned reports whether a barrier-watchdog trip has retired this pool.
// A poisoned pool refuses further runs; the owner should Close and replace
// it.
func (p *Pool) Poisoned() bool { return p.p.poison.Load() }

// Hold keeps the pool's idle workers polling for the next round, instead of
// yielding and parking once the spin budget is spent, until the returned
// release is called (once). A solver takes it for one solve: its chain passes
// follow each other within microseconds, and a parked worker would start each
// pass's first wide round a scheduler wakeup late. A pool wider than
// GOMAXPROCS when the hold is taken is not held: a spinning worker would only
// take the CPU its caller needs. Close still stops held workers.
func (p *Pool) Hold() (release func()) {
	if runtime.GOMAXPROCS(0) < p.p.workers {
		return func() {}
	}
	p.p.hold.Add(1)
	return func() { p.p.hold.Add(-1) }
}

// Close stops the workers and waits for them to exit. On a poisoned pool
// with a watchdog bound the wait itself is bounded: a straggler that never
// returns is leaked rather than hanging Close.
func (p *Pool) Close() { p.p.close() }

// RunOn executes the compiled schedule on a caller-supplied pool instead of a
// private one, with semantics identical to Run. The pool must not be shared
// with a concurrent run and must be at least as wide as the program — every
// w-partition of a round has its own slot — so a pool that is too narrow is
// an error (the caller falls back to Run, which sizes its own).
func (r *Runner) RunOn(pl *Pool, threads int) (Stats, error) {
	return r.RunOnContext(context.Background(), pl, threads)
}

// RunOnContext is RunOn under cooperative cancellation, with RunContext's
// semantics: a context fired mid-run stops the run at the next s-partition
// boundary with a *CancelledError, all workers parked at the barrier and the
// pool immediately reusable.
func (r *Runner) RunOnContext(ctx context.Context, pl *Pool, threads int) (Stats, error) {
	if pl == nil {
		return r.RunContext(ctx, threads)
	}
	if w := r.prog.MaxWidth; w > pl.Width() {
		return Stats{}, fmt.Errorf("exec: program width %d exceeds pool width %d", w, pl.Width())
	}
	return r.runOnPool(ctx, pl.p, threads)
}
