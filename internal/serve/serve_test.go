package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparsefusion/internal/exec"
)

// watchdog fails the test if it runs past the deadline (a deadlocked checkout
// would otherwise hang the suite).
func watchdog(t *testing.T, d time.Duration) func() {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(d):
			panic("serve test exceeded watchdog deadline: " + t.Name())
		}
	}()
	return func() { close(done) }
}

// TestAdmissionBound drives 4*K concurrent requests through a K-pool server
// and asserts the in-flight count never exceeds K while every request still
// completes.
func TestAdmissionBound(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	const k, reqs = 3, 12
	s := New(k, 2)
	defer s.Close()

	var active, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Do(func(pl *exec.Pool) error {
				if pl == nil || pl.Width() != 2 {
					t.Error("checked out a wrong pool")
				}
				a := active.Add(1)
				for {
					p := peak.Load()
					if a <= p || peak.CompareAndSwap(p, a) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				active.Add(-1)
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()

	if p := peak.Load(); p > k {
		t.Fatalf("admission bound violated: %d concurrent executions on a %d-pool server", p, k)
	}
	st := s.Stats()
	if st.Admitted != reqs {
		t.Fatalf("admitted %d, want %d", st.Admitted, reqs)
	}
	if st.Queued == 0 {
		t.Fatalf("expected some requests to queue with %d requests on %d pools", reqs, k)
	}
	if st.Active != 0 {
		t.Fatalf("active gauge %d after drain, want 0", st.Active)
	}
}

// TestErrorPropagatesAndPoolReturns confirms a failing fn surfaces its error
// and still returns the pool to the fleet.
func TestErrorPropagatesAndPoolReturns(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := New(1, 1)
	defer s.Close()

	want := ErrClosed // any sentinel works; reuse one we have
	if err := s.Do(func(*exec.Pool) error { return want }); err != want {
		t.Fatalf("Do returned %v, want %v", err, want)
	}
	// The single pool must be back: a second Do would deadlock otherwise
	// (watchdog catches that).
	if err := s.Do(func(*exec.Pool) error { return nil }); err != nil {
		t.Fatalf("second Do: %v", err)
	}
}

// TestCloseRejectsAndWaits verifies Close drains in-flight work and that
// subsequent Do calls fail fast with ErrClosed.
func TestCloseRejectsAndWaits(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := New(2, 1)

	started := make(chan struct{})
	release := make(chan struct{})
	go s.Do(func(*exec.Pool) error {
		close(started)
		<-release
		return nil
	})
	<-started

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an execution was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed

	if err := s.Do(func(*exec.Pool) error { return nil }); err != ErrClosed {
		t.Fatalf("Do after Close returned %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestDefaultFleetSizedFromMachine(t *testing.T) {
	np := runtime.GOMAXPROCS(0)
	s := New(0, 0)
	defer s.Close()
	st := s.Stats()
	if st.Width != 1 {
		t.Fatalf("width = %d, want 1", st.Width)
	}
	if want := np; st.MaxConcurrent != want {
		t.Fatalf("default fleet size = %d, want GOMAXPROCS/width = %d", st.MaxConcurrent, want)
	}
	wide := New(0, 2*np)
	defer wide.Close()
	if got := wide.Stats().MaxConcurrent; got != 1 {
		t.Fatalf("fleet for width > GOMAXPROCS = %d, want 1", got)
	}
}

func TestStatsEffectiveWidth(t *testing.T) {
	np := runtime.GOMAXPROCS(0)
	s := New(1, 2*np)
	defer s.Close()
	st := s.Stats()
	if st.Width != 2*np {
		t.Fatalf("configured width = %d, want %d", st.Width, 2*np)
	}
	if st.EffectiveWidth != np {
		t.Fatalf("effective width = %d, want GOMAXPROCS = %d", st.EffectiveWidth, np)
	}
	narrow := New(1, 1)
	defer narrow.Close()
	if got := narrow.Stats().EffectiveWidth; got != 1 {
		t.Fatalf("effective width of a 1-wide fleet = %d, want 1", got)
	}
}

// The admission-control contract under test: a request that cannot be
// served honestly — queue at its bound, deadline fired while waiting — is
// rejected with its typed sentinel instead of queueing unboundedly, and a
// pool poisoned by a barrier-watchdog trip is retired at check-in, never
// handed to the next request.

func TestDoContextDeadlineWhileQueued(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := NewCfg(1, 1, Config{})
	defer s.Close()

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(func(*exec.Pool) error { <-release; return nil })
	}()
	for s.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := s.DoContext(ctx, func(*exec.Pool) error { return nil })
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("context cause not reachable via errors.Is")
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

func TestDoContextShedsAtQueueBound(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := NewCfg(1, 1, Config{MaxQueue: 1})
	defer s.Close()

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(func(*exec.Pool) error { <-release; return nil })
	}()
	for s.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}

	// Fill the one queue slot with a waiter, then overflow it.
	waiterIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		close(waiterIn)
		s.DoContext(ctx, func(*exec.Pool) error { return nil })
	}()
	<-waiterIn
	for s.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}

	err := s.DoContext(context.Background(), func(*exec.Pool) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

// TestDoContextQueueBoundHoldsUnderConcurrentArrival: callers that reach a
// full server together never overfill the queue. Exactly MaxQueue of them
// wait and every other one is shed.
func TestDoContextQueueBoundHoldsUnderConcurrentArrival(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	const maxQueue, callers = 2, 64
	s := NewCfg(1, 1, Config{MaxQueue: maxQueue})
	defer s.Close()

	release := make(chan struct{})
	var busy sync.WaitGroup
	busy.Add(1)
	go func() {
		defer busy.Done()
		s.Do(func(*exec.Pool) error { <-release; return nil })
	}()
	for s.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.DoContext(ctx, func(*exec.Pool) error { return nil })
		}()
	}
	close(start)
	st := s.Stats()
	for ; st.Shed+st.Waiting != callers; st = s.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Waiting != maxQueue || st.Shed != callers-maxQueue {
		t.Errorf("Waiting = %d, Shed = %d; want %d and %d", st.Waiting, st.Shed, maxQueue, callers-maxQueue)
	}
	cancel() // the waiters drain
	wg.Wait()
	close(release)
	busy.Wait()
}

func TestExpiredContextRejectedBeforeQueueing(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := NewCfg(1, 1, Config{})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	// Even with a pool free, a dead context is rejected deterministically.
	err := s.DoContext(ctx, func(*exec.Pool) error { t.Fatal("ran with an expired context"); return nil })
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
}

func TestPoisonedPoolReplacedOnCheckIn(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := NewCfg(1, 2, Config{Watchdog: 20 * time.Millisecond})
	defer s.Close()

	// Poison the pool inside a served execution, as a barrier-watchdog trip
	// would; check-in must retire it.
	if err := s.Do(func(pl *exec.Pool) error { pl.PoisonForTest(); return nil }); err != nil {
		t.Fatal(err)
	}

	// The next request must get a healthy replacement pool, not the
	// poisoned one.
	err := s.Do(func(pl *exec.Pool) error {
		if pl.Poisoned() {
			t.Fatal("server handed out a poisoned pool")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PoolsReplaced != 1 {
		t.Fatalf("PoolsReplaced = %d, want 1", st.PoolsReplaced)
	}
}

func TestCloseContextHonoursDeadline(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	s := NewCfg(1, 1, Config{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(func(*exec.Pool) error { <-release; return nil })
	}()
	for s.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.CloseContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext under a held pool returned %v, want DeadlineExceeded", err)
	}
	close(release)
	wg.Wait()
}
