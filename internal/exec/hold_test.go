package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sparsefusion/internal/kernels"
)

// The hold contract under test: while a pool is held, an idle worker keeps
// polling for the next round instead of parking — unless the pool is wider
// than GOMAXPROCS — and nothing else about the pool changes: close still
// stops every worker, faults and cancellations come back as the same typed
// errors, and a released pool parks again.

// withProcs runs the test at GOMAXPROCS n. The spin trim is decided when a
// pool starts, so the pools under test must start inside fn.
func withProcs(t *testing.T, n int, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// parksWithin reports whether worker slot w of p raises its park flag within
// d: the flag is up exactly while the worker is parked or about to park.
func parksWithin(p *pool, w int, d time.Duration) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if p.park[w].flag.Load() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// closesWithin runs p.close and reports whether it returned within d; close
// returns only once every worker has exited.
func closesWithin(p *pool, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.close()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestHeldPoolSpinsUntilReleased: a held width-2 pool at GOMAXPROCS 2 keeps
// its idle worker out of the park for as long as the hold lasts — far past
// the ≈ 15 µs spin budget — and the worker parks once the hold is released,
// so the later close finds it parked.
func TestHeldPoolSpinsUntilReleased(t *testing.T) {
	withProcs(t, 2, func() {
		p := newPool(2, 0)
		release := (&Pool{p: p}).Hold()
		durs := make([]time.Duration, 2)
		p.run(2, func(int) {}, durs)
		if parksWithin(p, 1, 50*time.Millisecond) {
			t.Fatal("a held worker parked between rounds")
		}
		release()
		if !parksWithin(p, 1, 5*time.Second) {
			t.Fatal("the worker did not park after the hold was released")
		}
		if !closesWithin(p, 5*time.Second) {
			t.Fatal("close of a released pool did not return")
		}
	})
}

// TestHeldPoolCloseStopsWorkers: close needs no release first. It bumps the
// epoch, which a spinning held worker sees, and returns with no worker alive.
func TestHeldPoolCloseStopsWorkers(t *testing.T) {
	withProcs(t, 4, func() {
		p := newPool(4, 0)
		(&Pool{p: p}).Hold()
		durs := make([]time.Duration, 4)
		p.run(4, func(int) {}, durs)
		if !closesWithin(p, 5*time.Second) {
			t.Fatal("close of a held pool did not return: a spinning worker missed it")
		}
	})
}

// TestHeldOversubscribedPoolNeverSpins: at GOMAXPROCS 1 a width-2 pool is
// oversubscribed, and a spinning worker would only take the CPU its caller
// needs, so the hold is ignored and the idle worker parks at once — whether
// the pool started oversubscribed or GOMAXPROCS dropped after it started.
func TestHeldOversubscribedPoolNeverSpins(t *testing.T) {
	for _, startProcs := range []int{1, 2} {
		withProcs(t, startProcs, func() {
			p := newPool(2, 0)
			defer p.close()
			withProcs(t, 1, func() {
				release := (&Pool{p: p}).Hold()
				defer release()
				durs := make([]time.Duration, 2)
				p.run(2, func(int) {}, durs)
				if !parksWithin(p, 1, 5*time.Second) {
					t.Fatalf("started at GOMAXPROCS %d: a held worker of an oversubscribed pool spun instead of parking", startProcs)
				}
			})
		})
	}
}

// TestIdlePoolPinsNoBody: once a round's arrivals are in — the inline width-1
// path and the width-2 barrier alike — the pool no longer references the
// round's body, so an idle pool pins nothing of the run that used it.
func TestIdlePoolPinsNoBody(t *testing.T) {
	p := newPool(2, 0)
	defer p.close()
	durs := make([]time.Duration, 2)
	for _, parts := range []int{1, 2} {
		p.run(parts, func(int) {}, durs[:parts])
		if p.body != nil {
			t.Fatalf("a width-%d round left its body on the idle pool", parts)
		}
	}
}

// TestHeldPoolFaultsTyped: a cancel, a worker panic and a watchdog trip in a
// held pool's run return what they return on an unheld pool — the same typed
// error, attributed to the same place — and after a cancel or a panic the held
// pool runs the clean fixture to the reference bits.
func TestHeldPoolFaultsTyped(t *testing.T) {
	const th = 2
	withProcs(t, th, func() {
		_, ks, sched, snap, ref := compileGather(t, th)
		armedLoop, armedIter := -1, -1
		for _, sp := range sched.S {
			if len(sp) >= 2 && len(sp[1]) > 0 {
				armedLoop, armedIter = sp[1][0].Loop, sp[1][0].Idx
				break
			}
		}
		if armedLoop < 0 {
			t.Skip("schedule has no multi-partition s-partition to stall")
		}
		compile := func(ks []kernels.Kernel) *Runner {
			r, err := compileUnpacked(ks, sched)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		clean := compile(ks)
		width := clean.Program().MaxWidth
		panics := compile([]kernels.Kernel{ks[0], &panicAt{Kernel: ks[1], iter: 300}})
		// The watchdog abandons the stalled run's straggler, which still
		// writes its kernels' vectors once the delay ends. Each pass stalls a
		// twin fixture of its own (compileGather is deterministic in th), so
		// no later run shares memory with a straggler.
		stalled := func() *Runner {
			_, twin, _, _, _ := compileGather(t, th)
			twin[armedLoop] = &delayIter{Kernel: twin[armedLoop], iter: armedIter, d: 300 * time.Millisecond}
			return compile(twin)
		}

		// panicked is where each pass's panic was attributed.
		var panicked [2]struct{ worker, sPart, wPart int }
		for i, held := range []bool{false, true} {
			// hold holds pl when the pass is the held one.
			hold := func(pl *Pool) (release func()) {
				if held {
					return pl.Hold()
				}
				return func() {}
			}
			pl := NewPool(width, 0)
			release := hold(pl)
			run := func(r *Runner, pl *Pool, ctx context.Context) error {
				return watchdog(t, 10*time.Second, func() error {
					_, err := r.RunOnContext(ctx, pl, th)
					return err
				})
			}
			runClean := func(after string) {
				if err := run(clean, pl, context.Background()); err != nil {
					t.Fatalf("held=%v: clean run after %s: %v", held, after, err)
				}
				if !bitsSame(snap(), ref) {
					t.Fatalf("held=%v: clean run after %s diverged", held, after)
				}
			}

			// The slow run cancels itself from inside s-partition 0, so the
			// cancel lands mid-run however late the run's goroutine is
			// scheduled beside a held pool's spinning workers.
			ctx, cancel := context.WithCancel(context.Background())
			first := sched.S[0][0][0]
			slowKs := []kernels.Kernel{&slowKernel{Kernel: ks[0], d: 200 * time.Microsecond}, ks[1]}
			slowKs[first.Loop] = &cancelAt{Kernel: slowKs[first.Loop], iter: first.Idx, cancel: cancel}
			err := run(compile(slowKs), pl, ctx)
			cancel()
			var c *CancelledError
			if !errors.As(err, &c) || c.SPartition < 0 {
				t.Fatalf("held=%v: cancel mid-run returned %T (%v), want *CancelledError", held, err, err)
			}
			runClean("a cancel")

			err = run(panics, pl, context.Background())
			var xe *ExecError
			if !errors.As(err, &xe) || xe.Watchdog {
				t.Fatalf("held=%v: panic returned %T (%v), want a non-watchdog *ExecError", held, err, err)
			}
			panicked[i].worker, panicked[i].sPart, panicked[i].wPart = xe.Worker, xe.SPartition, xe.WPartition
			runClean("a panic")
			release()
			pl.Close()

			wd := NewPool(width, 30*time.Millisecond)
			release = hold(wd)
			err = run(stalled(), wd, context.Background())
			if !errors.As(err, &xe) || !xe.Watchdog || !wd.Poisoned() {
				t.Fatalf("held=%v: stall returned %T (%v), want a watchdog *ExecError and a poisoned pool", held, err, err)
			}
			if err := run(clean, wd, context.Background()); !errors.As(err, &xe) || !xe.Watchdog {
				t.Fatalf("held=%v: poisoned pool ran anyway (%v)", held, err)
			}
			release()
			wd.Close()
		}
		if panicked[0] != panicked[1] {
			t.Fatalf("panic attributed to %+v held, %+v unheld", panicked[1], panicked[0])
		}
	})
}

// BenchmarkRunWarm: what a run pays for its worker set, on BenchmarkRunContext's
// fixture inspected at 2 threads, so that the pool is no wider than a 2-vCPU
// box and a held worker really spins. "fresh" starts and closes a private pool
// per run (Runner.Run); "kept" reuses one pool whose idle worker parks between
// runs, as a server's does; "held" reuses one held pool, whose idle worker
// spins between runs, as a solver's does for the length of a solve.
func BenchmarkRunWarm(b *testing.B) {
	const th = 2
	r, _, _, _, _ := compileGather(b, th)
	width := r.Program().MaxWidth
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(th); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, held := range []bool{false, true} {
		name := "kept"
		if held {
			name = "held"
		}
		b.Run(name, func(b *testing.B) {
			pl := NewPool(width, 0)
			defer pl.Close()
			if held {
				defer pl.Hold()()
			}
			for i := 0; i < b.N; i++ {
				if _, err := r.RunOn(pl, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
