package exec

import (
	"fmt"

	"sparsefusion/internal/kernels"
)

// This file is the executor's fault channel. Worker bodies run arbitrary
// kernel code, and that code can panic: a typed numerical breakdown
// (kernels.BreakdownError), an out-of-bounds index from a corrupt or
// hand-loaded schedule, or a plain bug. A panic that escapes a worker
// goroutine would kill the process; worse, a panic swallowed naively would
// leave the worker short of the barrier and the caller spinning forever in
// awaitArrived. The pool therefore recovers every body panic into a
// workerFault (pool.invoke), lets the faulting worker arrive at the barrier
// normally, and the executors convert the first recorded fault into an
// *ExecError after the round, abandoning the remaining s-partitions.

// workerFault captures one recovered worker-body panic — or one of the two
// synthetic conditions that ride the same channel: a cooperative cancellation
// (cancel non-nil, installed by the context watcher) and a stuck-barrier
// watchdog trip (watchdog true, installed by the caller when a worker failed
// to arrive within the bound). The pool keeps the first fault of a run in an
// atomic pointer; later faults in the same or subsequent rounds are dropped
// (the first is the one that explains the rest).
type workerFault struct {
	worker    int
	recovered any
	stack     []byte
	// cancel, when non-nil, marks this as a synthetic cancellation fault;
	// the executor returns it (with the s-partition filled in) instead of an
	// *ExecError.
	cancel *CancelledError
	// watchdog marks a synthetic stuck-barrier fault: a worker failed to
	// arrive at the barrier within the configured bound, so the caller gave
	// up waiting instead of hanging. The pool is poisoned afterwards.
	watchdog bool
}

// ExecError is the typed error executors return when a worker body panicked.
// It identifies the failing round (s-partition), the pool worker slot, and —
// when the executor knows it — the global w-partition the slot was running.
// Unwrap exposes the recovered value when it is itself an error, so callers
// can errors.As straight through to a *kernels.BreakdownError.
type ExecError struct {
	// Worker is the pool worker slot (0 = the calling goroutine).
	Worker int
	// SPartition is the barrier round in which the fault was recovered; -1
	// on the sequential rung (RunInOrder), which has none.
	SPartition int
	// WPartition is the global w-partition index the slot was executing,
	// or -1 when there is none to attribute (cancellation, watchdog, the
	// sequential rung).
	WPartition int
	// Recovered is the value the worker body panicked with.
	Recovered any
	// Stack is the faulting goroutine's stack at recovery time.
	Stack []byte
	// Watchdog marks a stuck-barrier trip: the slot failed to arrive at the
	// barrier within the configured bound, so the caller abandoned the round
	// instead of hanging. The worker set is poisoned — the serving layer
	// replaces it — and the straggler, if it ever finishes, is discarded.
	Watchdog bool
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("exec: worker %d faulted in s-partition %d: %v", e.Worker, e.SPartition, e.Recovered)
}

// Unwrap returns the recovered panic value when it is an error (notably a
// *kernels.BreakdownError), so errors.As and errors.Is see through ExecError.
func (e *ExecError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// Breakdown returns the recovered *kernels.BreakdownError, or nil when the
// fault was not a numerical breakdown.
func (e *ExecError) Breakdown() *kernels.BreakdownError {
	if b, ok := e.Recovered.(*kernels.BreakdownError); ok {
		return b
	}
	return nil
}

// execError converts a recorded fault into the executor-level error.
// wPart is the global w-partition of the faulting slot, or -1.
func (f *workerFault) execError(sPart, wPart int) *ExecError {
	return &ExecError{
		Worker:     f.worker,
		SPartition: sPart,
		WPartition: wPart,
		Recovered:  f.recovered,
		Stack:      f.stack,
		Watchdog:   f.watchdog,
	}
}

// runError converts a recorded fault into the error a run returns: the typed
// *CancelledError for synthetic cancellation faults (with the observing
// s-partition filled in), an *ExecError for everything else. This is the one
// extra branch cancellation costs — and only on the already-error path; the
// uncancelled hot loop still pays a single atomic load per round.
func (f *workerFault) runError(sPart, wPart int) error {
	if f.cancel != nil {
		f.cancel.SPartition = sPart
		return f.cancel
	}
	return f.execError(sPart, wPart)
}
