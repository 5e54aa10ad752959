package exec

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// The cancellation contract under test: a cancelled context turns a run into
// a typed *CancelledError within one s-partition round — at any worker
// count, on private and shared pools — and never
// into a hang, an untyped error, or a corrupted fixture. Completed
// s-partitions stay bit-identical to an uncancelled run, so a clean run
// after any number of cancelled ones must reproduce the reference bits.

// compileGather builds the all-gather two-kernel fixture (TRSV feeding
// TRSV), its schedule, and a compiled runner, plus the snapshot closure and
// the clean reference output. Gather kernels are the ones with a
// bit-identity guarantee at any worker count — the scatter SpMV's atomic
// adds reassociate under parallelism — so every bit-compare below uses this
// fixture.
func compileGather(t testing.TB, th int) (*Runner, []kernels.Kernel, *core.Schedule, func() []float64, []float64) {
	t.Helper()
	loops, ks, snap := fusedTrsvTrsv(600, int64(th))
	p := icoParams()
	p.Threads = th
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(th); err != nil {
		t.Fatal(err)
	}
	return r, ks, sched, snap, snap()
}

func bitsSame(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestPreCancelledContextRefusesRun(t *testing.T) {
	for _, th := range faultWorkerCounts {
		r, _, _, snap, ref := compileGather(t, th)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := watchdog(t, 10*time.Second, func() error {
			_, err := r.RunContext(ctx, th)
			return err
		})
		var c *CancelledError
		if !errors.As(err, &c) {
			t.Fatalf("th=%d: got %T (%v), want *CancelledError", th, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("th=%d: cancellation cause not reachable via errors.Is", th)
		}
		if c.SPartition != -1 {
			t.Fatalf("th=%d: pre-run cancellation reports s-partition %d, want -1", th, c.SPartition)
		}
		// The refused run must not have touched the fixture.
		if _, err := r.Run(th); err != nil {
			t.Fatal(err)
		}
		if !bitsSame(snap(), ref) {
			t.Fatalf("th=%d: run after refused run diverged", th)
		}
	}
}

// slowKernel stalls every iteration, giving a cancel issued after the run
// starts time to land mid-run.
type slowKernel struct {
	kernels.Kernel
	d time.Duration
}

func (k *slowKernel) Run(i int) {
	time.Sleep(k.d)
	k.Kernel.Run(i)
}

func TestCancelMidRunTyped(t *testing.T) {
	for _, th := range []int{2, 4, 8} {
		_, ks, sched, snap, ref := compileGather(t, th)
		slow := []kernels.Kernel{&slowKernel{Kernel: ks[0], d: 200 * time.Microsecond}, ks[1]}
		r, err := compileUnpacked(slow, sched)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		err = watchdog(t, 10*time.Second, func() error {
			_, err := r.RunContext(ctx, th)
			return err
		})
		cancel()
		var c *CancelledError
		if !errors.As(err, &c) {
			t.Fatalf("th=%d: got %T (%v), want *CancelledError", th, err, err)
		}
		if c.SPartition < 0 {
			t.Fatalf("th=%d: mid-run cancellation reports s-partition %d, want >= 0", th, c.SPartition)
		}
		// The fixture survives: a clean runner over the same kernels
		// reproduces the reference bits.
		clean, err := compileUnpacked(ks, sched)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := clean.Run(th); err != nil {
			t.Fatal(err)
		}
		if !bitsSame(snap(), ref) {
			t.Fatalf("th=%d: clean run after cancellation diverged", th)
		}
	}
}

func TestCancelStormBitIdentity(t *testing.T) {
	for _, th := range faultWorkerCounts {
		r, _, _, snap, ref := compileGather(t, th)
		for i := 0; i < 16; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*50*time.Microsecond)
			err := watchdog(t, 10*time.Second, func() error {
				_, err := r.RunContext(ctx, th)
				return err
			})
			cancel()
			if err != nil {
				var c *CancelledError
				if !errors.As(err, &c) {
					t.Fatalf("th=%d run %d: got %T (%v), want *CancelledError or nil", th, i, err, err)
				}
			}
		}
		if _, err := r.RunContext(context.Background(), th); err != nil {
			t.Fatal(err)
		}
		if !bitsSame(snap(), ref) {
			t.Fatalf("th=%d: clean run after storm diverged", th)
		}
	}
}

// panicAt panics on one armed iteration — raced below against an in-flight
// cancellation, where whichever fault wins the pool's CAS must still surface
// as a typed error.
type panicAt struct {
	kernels.Kernel
	iter int
}

func (k *panicAt) Run(i int) {
	if i == k.iter {
		panic("cancel_test: injected panic")
	}
	k.Kernel.Run(i)
}

func TestCancelVsFaultRace(t *testing.T) {
	for _, th := range []int{2, 8} {
		_, ks, sched, _, _ := compileGather(t, th)
		faulty := []kernels.Kernel{ks[0], &panicAt{Kernel: ks[1], iter: 300}}
		r, err := compileUnpacked(faulty, sched)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				cancel() // race the cancellation against the injected panic
			}()
			err := watchdog(t, 10*time.Second, func() error {
				_, err := r.RunContext(ctx, th)
				return err
			})
			wg.Wait()
			var c *CancelledError
			var xe *ExecError
			switch {
			case errors.As(err, &c): // cancellation won the fault CAS
			case errors.As(err, &xe):
				if xe.Watchdog {
					t.Fatalf("th=%d run %d: spurious watchdog trip: %v", th, i, err)
				}
			default:
				t.Fatalf("th=%d run %d: got %T (%v), want *CancelledError or *ExecError", th, i, err, err)
			}
		}
	}
}

// cancelAt fires cancel when the armed iteration runs: a cancel that lands at
// a known point of a walk, with no timing involved.
type cancelAt struct {
	kernels.Kernel
	iter   int
	cancel context.CancelFunc
}

func (k *cancelAt) Run(i int) {
	if i == k.iter {
		k.cancel()
	}
	k.Kernel.Run(i)
}

// TestSequentialWalkCancelTyped: the walk observes its context before the run
// and before every s-partition. A dead context refuses the run untouched; one
// that fires inside s-partition s stops the walk before s+1, with everything
// written so far the bits of an uncancelled walk of the first s+1
// s-partitions.
func TestSequentialWalkCancelTyped(t *testing.T) {
	for _, th := range faultWorkerCounts {
		_, ks, sched, snap, ref := compileGather(t, th)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunScheduleSequential(ctx, ks, sched)
		var c *CancelledError
		if !errors.As(err, &c) || c.SPartition != -1 || !errors.Is(err, context.Canceled) {
			t.Fatalf("th=%d: dead context returned %T (%v), want *CancelledError at -1", th, err, err)
		}
		if !bitsSame(snap(), ref) {
			t.Fatalf("th=%d: refused walk touched the fixture", th)
		}

		// TRSV's Prepare clears nothing, so each walk starts from zeroed
		// solution vectors: what a cancelled walk did not write stays zero.
		zeroed := func(ks []kernels.Kernel) [][]float64 {
			xs := [][]float64{ks[0].(*kernels.SpTRSVCSR).X, ks[1].(*kernels.SpTRSVCSR).X}
			for _, x := range xs {
				clear(x)
			}
			return xs
		}
		// A twin fixture (compileGather is deterministic in th) walks the
		// uncancelled prefixes.
		_, twinKs, _, _, _ := compileGather(t, th)
		for s := 0; s+1 < len(sched.S); s++ {
			want := zeroed(twinKs)
			walk(twinKs, &core.Schedule{S: sched.S[:s+1]})

			got := zeroed(ks)
			first := sched.S[s][0][0]
			ctx, cancel := context.WithCancel(context.Background())
			armed := append([]kernels.Kernel(nil), ks...)
			armed[first.Loop] = &cancelAt{Kernel: ks[first.Loop], iter: first.Idx, cancel: cancel}
			_, err := RunScheduleSequential(ctx, armed, sched)
			cancel()
			if !errors.As(err, &c) || c.SPartition != s+1 {
				t.Fatalf("th=%d: cancel inside s-partition %d returned %v, want *CancelledError at %d", th, s, err, s+1)
			}
			if !bitsSame(got[0], want[0]) || !bitsSame(got[1], want[1]) {
				t.Fatalf("th=%d: walk cancelled after s-partition %d differs from an uncancelled prefix", th, s)
			}
		}
	}
}

func TestSharedPoolCancelAndReuse(t *testing.T) {
	th := 4
	r, _, _, snap, ref := compileGather(t, th)
	pl := NewPool(th, 0)
	defer pl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunOnContext(ctx, pl, th)
	var c *CancelledError
	if !errors.As(err, &c) {
		t.Fatalf("got %T (%v), want *CancelledError", err, err)
	}
	// A cancellation must not poison the shared pool: the next run on the
	// same pool succeeds and reproduces the reference.
	if pl.Poisoned() {
		t.Fatal("cancellation poisoned the shared pool")
	}
	if _, err := r.RunOnContext(context.Background(), pl, th); err != nil {
		t.Fatal(err)
	}
	if !bitsSame(snap(), ref) {
		t.Fatal("shared-pool run after cancellation diverged")
	}
}

// TestRunOnRefusesNarrowPool: a round gives every w-partition its own slot, so
// a shared pool narrower than the program is an error, not a run — and the
// refusal leaves pool, runner and fixture usable.
func TestRunOnRefusesNarrowPool(t *testing.T) {
	r, _, _, snap, ref := compileGather(t, 4)
	width := r.Program().MaxWidth
	if width < 2 {
		t.Skipf("fixture too narrow (MaxWidth=%d) to exercise a narrow pool", width)
	}
	narrow := NewPool(width-1, 0)
	defer narrow.Close()
	if _, err := r.RunOn(narrow, 4); err == nil {
		t.Fatal("runner accepted a pool narrower than its program")
	}
	wide := NewPool(width, 0)
	defer wide.Close()
	if _, err := r.RunOn(wide, 4); err != nil {
		t.Fatal(err)
	}
	if !bitsSame(snap(), ref) {
		t.Fatal("run after the refusal diverged")
	}
}

func TestRunnerWatchdogTrips(t *testing.T) {
	th := 4
	_, ks, sched, _, _ := compileGather(t, th)
	// Stall an iteration the schedule places on a non-calling slot:
	// w-partition w of an s-partition runs on pool slot w, and slot 0 is the
	// caller (which cannot time out on its own arrival).
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
	faultyKs := append([]kernels.Kernel(nil), ks...)
	faultyKs[armedLoop] = &delayIter{Kernel: ks[armedLoop], iter: armedIter, d: 300 * time.Millisecond}
	r, err := compileUnpacked(faultyKs, sched)
	if err != nil {
		t.Fatal(err)
	}
	r.Configure(Config{Watchdog: 30 * time.Millisecond})
	err = watchdog(t, 10*time.Second, func() error {
		_, err := r.Run(th)
		return err
	})
	var xe *ExecError
	if !errors.As(err, &xe) || !xe.Watchdog {
		t.Fatalf("got %T (%v), want watchdog *ExecError", err, err)
	}
	// A watchdog trip abandons the run's state to the straggler, which may
	// keep writing the stalled fixture's vectors arbitrarily late — so the
	// contract is recompile-from-fresh, not reuse. A fresh fixture (sharing
	// no memory with the leaked worker) must reproduce its reference.
	r2, _, _, snap2, ref2 := compileGather(t, th)
	if _, err := r2.Run(th); err != nil {
		t.Fatal(err)
	}
	if !bitsSame(snap2(), ref2) {
		t.Fatal("clean run after watchdog trip diverged")
	}
}

type delayIter struct {
	kernels.Kernel
	iter int
	d    time.Duration
}

func (k *delayIter) Run(i int) {
	if i == k.iter {
		time.Sleep(k.d)
	}
	k.Kernel.Run(i)
}

func TestPoisonedPoolRefusesRuns(t *testing.T) {
	p := newPool(4, 20*time.Millisecond)
	defer p.close()
	durs := make([]time.Duration, 4)
	p.run(4, func(w int) {
		if w == 3 {
			time.Sleep(150 * time.Millisecond)
		}
	}, durs)
	f := p.takeFault()
	if f == nil || !f.watchdog {
		t.Fatalf("stalled worker produced fault %+v, want a watchdog fault", f)
	}
	if !p.poison.Load() {
		t.Fatal("watchdog trip did not poison the pool")
	}
	// A poisoned pool refuses further rounds with a synthetic watchdog
	// fault instead of racing the straggler.
	p.run(4, func(w int) {}, durs)
	f = p.takeFault()
	if f == nil || !f.watchdog {
		t.Fatalf("poisoned pool ran anyway (fault %+v)", f)
	}
}

// BenchmarkRunContext: what merely being cancellable costs a run. "armed" runs
// under a context that can fire and never does — one watcher goroutine per
// run, the same fault-pointer load per round — against "plain", whose
// context.Background() arms nothing.
func BenchmarkRunContext(b *testing.B) {
	const th = 4
	r, _, _, _, _ := compileGather(b, th)
	armed, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"plain", context.Background()}, {"armed", armed}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.RunContext(c.ctx, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
