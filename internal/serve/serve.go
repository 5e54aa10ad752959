// Package serve bounds concurrent fused executions for the multi-tenant
// serving layer. The executor's worker sets (exec.Pool) spin while a run is
// in flight, so N concurrent clients each spawning their own pool would stack
// N*width busy goroutines onto the machine — on an oversubscribed server the
// spinning itself destroys the latency the fused schedule bought. A Server
// owns a fixed fleet of K persistent pools used as both a semaphore and a
// free-list: at most K executions run at once, each on a pre-spawned pool,
// and excess requests queue on the checkout channel in arrival order.
//
// Admission is deadline-aware: DoContext sheds work instead of queueing it
// unboundedly (ErrOverloaded past the queue bound, ErrDeadlineExceeded when
// the request's deadline fires while it waits), and a pool poisoned by a
// barrier-watchdog trip is retired and replaced on check-in rather than
// handed to the next request.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparsefusion/internal/exec"
)

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: server is closed")

// ErrOverloaded is returned by DoContext when every pool is checked out and
// the wait queue is already at its configured bound: admitting the request
// would only grow latency for everyone, so it is shed immediately instead.
var ErrOverloaded = errors.New("serve: overloaded: admission queue is full")

// ErrDeadlineExceeded is returned by DoContext when the request's context
// fired while it was still queued for a pool — the work never started.
// errors.Is(err, context.DeadlineExceeded) also holds when the context
// carried a deadline.
var ErrDeadlineExceeded = errors.New("serve: deadline exceeded while queued")

// queueError ties the serve-level sentinel to the context error that caused
// it, so both errors.Is(err, ErrDeadlineExceeded) and
// errors.Is(err, context.DeadlineExceeded) work on the returned value.
type queueError struct {
	sentinel error
	cause    error
}

func (e *queueError) Error() string { return e.sentinel.Error() + ": " + e.cause.Error() }
func (e *queueError) Is(target error) bool {
	return target == e.sentinel || errors.Is(e.cause, target)
}
func (e *queueError) Unwrap() error { return e.cause }

// Server is a bounded pool of executor worker sets.
type Server struct {
	pools chan *exec.Pool
	done  chan struct{}
	width int

	// maxQueue bounds how many requests may wait for a pool at once; 0 means
	// unbounded (the classic behavior). watchdog is the barrier-watchdog
	// bound stamped onto every pool the server builds, including
	// replacements for poisoned ones.
	maxQueue int64
	watchdog time.Duration

	admitted atomic.Int64
	queued   atomic.Int64
	active   atomic.Int64
	waiting  atomic.Int64
	shed     atomic.Int64
	deadline atomic.Int64
	replaced atomic.Int64

	// observer, when set (before serving starts), sees every admission with
	// its queueing outcome — the telemetry layer's session-lifecycle hook.
	observer atomic.Pointer[func(AdmitInfo)]

	closeOnce sync.Once
}

// AdmitInfo describes one admission as the observer sees it.
type AdmitInfo struct {
	// Queued reports that all pools were checked out at arrival; Wait is the
	// time spent blocked for one (0 when admitted immediately).
	Queued bool
	Wait   time.Duration
}

// Observe installs fn as the admission observer (nil removes it). The
// callback runs inline on the admitted goroutine before its execution starts,
// so it must be fast; installation is atomic and may happen while serving.
func (s *Server) Observe(fn func(AdmitInfo)) {
	if fn == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&fn)
}

// Stats is a snapshot of the server's admission counters.
type Stats struct {
	// MaxConcurrent is the pool-fleet size K (the admission bound).
	MaxConcurrent int `json:"max_concurrent"`
	// MaxQueue is the admission-queue bound (0 = unbounded).
	MaxQueue int `json:"max_queue"`
	// Width is each pool's configured worker width.
	Width int `json:"width"`
	// EffectiveWidth is the parallelism a pool actually achieves right now:
	// min(Width, GOMAXPROCS). A fleet configured wider than the machine (or
	// narrowed by a runtime GOMAXPROCS change) still runs correctly — the
	// extra workers just time-share cores — but capacity planning should read
	// this, not Width.
	EffectiveWidth int `json:"effective_width"`
	// Admitted counts executions that checked out a pool.
	Admitted int64 `json:"admitted"`
	// Queued counts admissions that had to wait because all K pools were
	// checked out at the moment of arrival.
	Queued int64 `json:"queued"`
	// Active is the number of executions in flight right now.
	Active int64 `json:"active"`
	// Waiting is the number of requests blocked for a pool right now — the
	// live queue depth, as opposed to the cumulative Queued.
	Waiting int64 `json:"waiting"`
	// Shed counts requests rejected with ErrOverloaded because the queue was
	// at its bound.
	Shed int64 `json:"shed"`
	// DeadlineExceeded counts requests whose context fired while they were
	// still queued (returned ErrDeadlineExceeded; the work never started).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// PoolsReplaced counts poisoned pools (barrier-watchdog trips) the server
	// retired and replaced with fresh ones.
	PoolsReplaced int64 `json:"pools_replaced"`
}

// Config tunes a Server beyond the fleet size and width.
type Config struct {
	// MaxQueue bounds how many requests may wait for a pool at once; a
	// request arriving past the bound is shed with ErrOverloaded instead of
	// queueing. <= 0 means unbounded (the classic behavior).
	MaxQueue int
	// Watchdog is the barrier-watchdog bound stamped onto every pool in the
	// fleet (see exec.Config.Watchdog). 0 disables it.
	Watchdog time.Duration
}

// NewCfg starts a server with maxConcurrent pools of the given worker width,
// admission and watchdog configured by cfg (Config{} is usable). Width is
// clamped to at least 1. maxConcurrent <= 0 sizes the fleet from the
// machine: GOMAXPROCS/width pools (at least 1), so the fleet's spinning
// workers roughly cover the cores without oversubscribing them. The fleet
// spins up eagerly so the first request does not pay pool-spawn latency.
func NewCfg(maxConcurrent, width int, cfg Config) *Server {
	if width < 1 {
		width = 1
	}
	if maxConcurrent < 1 {
		maxConcurrent = runtime.GOMAXPROCS(0) / width
		if maxConcurrent < 1 {
			maxConcurrent = 1
		}
	}
	s := &Server{
		pools:    make(chan *exec.Pool, maxConcurrent),
		done:     make(chan struct{}),
		width:    width,
		watchdog: cfg.Watchdog,
	}
	if cfg.MaxQueue > 0 {
		s.maxQueue = int64(cfg.MaxQueue)
	}
	for i := 0; i < maxConcurrent; i++ {
		s.pools <- exec.NewPool(width, cfg.Watchdog)
	}
	return s
}

// Width is the worker width of every pool in the fleet.
func (s *Server) Width() int { return s.width }

// Do checks out a pool, runs fn on it, and returns the pool to the fleet.
// When all pools are busy the call blocks until one frees up (counted in
// Stats.Queued). fn owns the pool exclusively for the duration of the call
// and must not retain it. Returns ErrClosed once the server is closed.
func (s *Server) Do(fn func(*exec.Pool) error) error {
	return s.DoContext(context.Background(), fn)
}

// DoContext is Do under admission control: a request that cannot start
// immediately queues only while ctx is alive and only if the queue is below
// its bound. It returns ErrOverloaded when the queue is full (the request is
// shed without waiting), ErrDeadlineExceeded when ctx fires while queued
// (the work never started — callers can safely retry elsewhere), and
// ErrClosed once the server is closed. ctx is not consulted after fn starts;
// pass it into fn (e.g. exec.Runner.RunOnContext) to bound the run itself.
func (s *Server) DoContext(ctx context.Context, fn func(*exec.Pool) error) error {
	// A dead context is rejected before any checkout, free pool or not: the
	// caller has already given up, running its work only wastes a slot.
	if err := ctx.Err(); err != nil {
		s.deadline.Add(1)
		return &queueError{sentinel: ErrDeadlineExceeded, cause: err}
	}
	var pl *exec.Pool
	var info AdmitInfo
	select {
	case pl = <-s.pools:
	case <-s.done:
		return ErrClosed
	default:
		if !s.enqueue() {
			s.shed.Add(1)
			return ErrOverloaded
		}
		s.queued.Add(1)
		t0 := time.Now()
		select {
		case pl = <-s.pools:
		case <-ctx.Done():
			s.waiting.Add(-1)
			s.deadline.Add(1)
			return &queueError{sentinel: ErrDeadlineExceeded, cause: ctx.Err()}
		case <-s.done:
			s.waiting.Add(-1)
			return ErrClosed
		}
		s.waiting.Add(-1)
		info = AdmitInfo{Queued: true, Wait: time.Since(t0)}
	}
	s.admitted.Add(1)
	if obs := s.observer.Load(); obs != nil {
		(*obs)(info)
	}
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		s.pools <- s.checkIn(pl)
	}()
	return fn(pl)
}

// enqueue takes a place in the queue, unless the queue is bounded and full.
// The bound's check and the take are one compare-and-swap, so requests that
// arrive together at a full server cannot all pass the check and overfill it.
func (s *Server) enqueue() bool {
	max := s.maxQueue
	if max <= 0 {
		s.waiting.Add(1)
		return true
	}
	for {
		n := s.waiting.Load()
		if n >= max {
			return false
		}
		if s.waiting.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// checkIn vets a pool coming back from a run: a pool poisoned by a
// barrier-watchdog trip is retired (its Close is bounded by the watchdog) and
// replaced by a fresh one, so the next request never inherits a stuck worker.
func (s *Server) checkIn(pl *exec.Pool) *exec.Pool {
	if !pl.Poisoned() {
		return pl
	}
	s.replaced.Add(1)
	// Close in the background: it may wait up to the watchdog bound for the
	// straggler, and the next request should not pay that.
	go pl.Close()
	return exec.NewPool(s.width, s.watchdog)
}

// Stats snapshots the admission counters.
func (s *Server) Stats() Stats {
	eff := s.width
	if np := runtime.GOMAXPROCS(0); np < eff {
		eff = np
	}
	return Stats{
		MaxConcurrent:    cap(s.pools),
		MaxQueue:         int(s.maxQueue),
		Width:            s.width,
		EffectiveWidth:   eff,
		Admitted:         s.admitted.Load(),
		Queued:           s.queued.Load(),
		Active:           s.active.Load(),
		Waiting:          s.waiting.Load(),
		Shed:             s.shed.Load(),
		DeadlineExceeded: s.deadline.Load(),
		PoolsReplaced:    s.replaced.Load(),
	}
}

// Close rejects new work and shuts the fleet down, waiting for in-flight
// executions to return their pools. Safe to call more than once.
func (s *Server) Close() { _ = s.CloseContext(context.Background()) }

// CloseContext is Close with a bound: it rejects new work immediately, then
// drains and closes the fleet only while ctx is alive. When ctx fires first
// the remaining pools — each pinned under a still-running execution — are
// abandoned to their runs (their workers exit when the runs finish) and
// ctx.Err() is returned. Safe to call more than once and concurrently with
// Close; only the first call drains.
func (s *Server) CloseContext(ctx context.Context) error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		for i := 0; i < cap(s.pools); i++ {
			select {
			case pl := <-s.pools:
				pl.Close()
			case <-ctx.Done():
				err = ctx.Err()
				return
			}
		}
	})
	return err
}
