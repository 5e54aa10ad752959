package exec

import (
	"context"
	"errors"
	"fmt"
)

// This file is the executor's cooperative-cancellation channel. A fused run
// can be long — thousands of barrier rounds on a big matrix, or effectively
// unbounded when a near-singular chain keeps a solver iterating — and the
// serving layer needs a way to take a run off a pool without killing the
// process or abandoning the pool's workers mid-round. Cancellation therefore
// rides the exact mechanism the fault channel already built: a cancel request
// installs a synthetic workerFault into the pool's per-run atomic fault
// pointer, every worker still arrives at the current s-partition's barrier
// (per-w-partition arithmetic is never interrupted, so completed s-partitions
// stay bit-identical), and the caller's existing once-per-round fault poll —
// one atomic load — observes it and returns a typed *CancelledError. The hot
// loop gains no new branch in the common case: the uncancelled path still
// performs the same single fault-pointer load per round it always did.

// CancelledError is the typed error a run returns when its context was
// cancelled (or its deadline expired) while the run was in flight. The run
// stopped at an s-partition boundary: every s-partition before SPartition
// completed exactly as an uncancelled run would have, so outputs written so
// far are bit-identical prefixes, and the pool — with all workers parked at
// the barrier — is immediately reusable for the next request.
type CancelledError struct {
	// SPartition is the barrier round at which the cancellation was observed;
	// -1 when the context was already dead before the first round, and on
	// the sequential rung (RunInOrder), which has no rounds.
	SPartition int
	// Reason is the cancellation cause: the context's cause string
	// (context.Cause), e.g. "context canceled" or "context deadline exceeded".
	Reason string
	// cause is the context's error, exposed through Unwrap so callers can
	// errors.Is(err, context.Canceled) or context.DeadlineExceeded.
	cause error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("exec: run cancelled at s-partition %d: %s", e.SPartition, e.Reason)
}

// Unwrap exposes the context error (context.Canceled or
// context.DeadlineExceeded), so errors.Is sees through CancelledError.
func (e *CancelledError) Unwrap() error { return e.cause }

// Deadline reports whether the cancellation was a deadline expiry rather
// than an explicit cancel.
func (e *CancelledError) Deadline() bool {
	return errors.Is(e.cause, context.DeadlineExceeded)
}

// Cancelled builds the typed error for a context that fired before any
// s-partition ran (SPartition is -1): the facade's solvers use it for their
// between-iteration context checks, so a cancelled solve returns the same
// typed error whether the cancel landed mid-run or between runs.
func Cancelled(ctx context.Context) *CancelledError { return newCancelled(ctx) }

// newCancelled builds the typed error for a fired context. Unwrap carries the
// canonical ctx.Err sentinel; Reason carries the richer context.Cause text
// when one was attached.
func newCancelled(ctx context.Context) *CancelledError {
	cause := ctx.Err()
	if cause == nil {
		cause = context.Canceled // defensive: only called on fired contexts
	}
	reason := cause.Error()
	if c := context.Cause(ctx); c != nil {
		reason = c.Error()
	}
	return &CancelledError{SPartition: -1, Reason: reason, cause: cause}
}

// cancelWatch is one run's context watcher: a goroutine that installs the
// cancel fault when the context fires, plus the handshake that guarantees the
// watcher is fully quiescent — and any late-installed cancel fault drained —
// before the pool is handed to the next run.
type cancelWatch struct {
	stop chan struct{}
	done chan struct{}
}

// watchCancel arms cancellation for the run in flight on p. It returns nil
// when ctx can never fire (nil context or no Done channel), which is the
// common uninstrumented case and costs nothing per round. Otherwise a watcher
// goroutine waits for ctx.Done and CAS-installs a synthetic fault; a real
// worker fault that wins the CAS takes precedence (it explains the run's end
// better than the cancel that raced it).
func (p *pool) watchCancel(ctx context.Context) *cancelWatch {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	w := &cancelWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		select {
		case <-ctx.Done():
			p.fault.CompareAndSwap(nil, &workerFault{worker: -1, cancel: newCancelled(ctx)})
		case <-w.stop:
		}
	}()
	return w
}

// finish tears the watcher down after its run completed (normally or with an
// error). It blocks until the watcher goroutine has exited — so no store can
// race into the next run — and drains a cancel fault that landed after the
// run's last fault poll. Only cancel faults are drained: a real worker fault
// cannot arrive here (workers are quiescent at the barrier), and draining one
// would lose a crash report if that invariant ever broke.
func (w *cancelWatch) finish(p *pool) {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
	if f := p.fault.Load(); f != nil && f.cancel != nil {
		p.fault.CompareAndSwap(f, nil)
	}
}
