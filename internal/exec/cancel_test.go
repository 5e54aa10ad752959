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
// a known point of a run, with no timing involved.
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

// inOrderRef runs a twin of the TRSV-TRSV fixture kernel by kernel through
// kernels.RunSeq and returns both kernels' outputs: the bits RunInOrder must
// reproduce.
func inOrderRef(t *testing.T, seed int64) (x, z []float64) {
	t.Helper()
	_, ks, _ := fusedTrsvTrsv(600, seed)
	for _, k := range ks {
		if err := kernels.RunSeq(k); err != nil {
			t.Fatal(err)
		}
	}
	return ks[0].(*kernels.SpTRSVCSR).X, ks[1].(*kernels.SpTRSVCSR).X
}

// TestInOrderCancelTyped: the in-order rung observes its context before every
// kernel. A dead context refuses the run untouched; one that fires inside the
// first kernel lets that kernel finish with its RunSeq bits and stops the run
// before the second, whose output stays as it was.
func TestInOrderCancelTyped(t *testing.T) {
	wantX, wantZ := inOrderRef(t, 5)
	_, ks, snap := fusedTrsvTrsv(600, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunInOrder(ctx, ks)
	var c *CancelledError
	if !errors.As(err, &c) || c.SPartition != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context returned %T (%v), want *CancelledError at -1", err, err)
	}
	if !bitsSame(snap(), make([]float64, len(wantZ))) {
		t.Fatal("refused run touched the fixture")
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	armed := []kernels.Kernel{&cancelAt{Kernel: ks[0], iter: ks[0].Iterations() - 1, cancel: cancel}, ks[1]}
	if _, err := RunInOrder(ctx, armed); !errors.As(err, &c) {
		t.Fatalf("cancel inside the first kernel returned %T (%v), want *CancelledError", err, err)
	}
	if !bitsSame(ks[0].(*kernels.SpTRSVCSR).X, wantX) {
		t.Fatal("the kernel the cancel landed in did not finish with its RunSeq bits")
	}
	if !bitsSame(snap(), make([]float64, len(wantZ))) {
		t.Fatal("the kernel after the cancel ran")
	}
	if _, err := RunInOrder(context.Background(), ks); err != nil {
		t.Fatal(err)
	}
	if !bitsSame(snap(), wantZ) {
		t.Fatal("a clean run after the cancel differs from RunSeq's bits")
	}
}

// breakdownAt raises a typed numerical breakdown on one armed iteration.
type breakdownAt struct {
	kernels.Kernel
	iter int
}

func (k *breakdownAt) Run(i int) {
	if i == k.iter {
		panic(&kernels.BreakdownError{Kernel: k.Name(), Row: i, Reason: "test: injected breakdown"})
	}
	k.Kernel.Run(i)
}

// TestInOrderFaultTyped: a panic out of a kernel body comes back as the
// *ExecError the pool produces — with a stack, naming no s- or w-partition —
// and a breakdown stays reachable through errors.As. Either way the kernels
// run cleanly, to RunSeq's bits, on the next call.
func TestInOrderFaultTyped(t *testing.T) {
	_, wantZ := inOrderRef(t, 6)
	_, ks, snap := fusedTrsvTrsv(600, 6)
	for _, tc := range []struct {
		name      string
		armed     kernels.Kernel
		breakdown bool
	}{
		{"panic", &panicAt{Kernel: ks[1], iter: 7}, false},
		{"breakdown", &breakdownAt{Kernel: ks[1], iter: 7}, true},
	} {
		_, err := RunInOrder(context.Background(), []kernels.Kernel{ks[0], tc.armed})
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: returned %T (%v), want *ExecError", tc.name, err, err)
		}
		if ee.Worker != 0 || ee.SPartition != -1 || ee.WPartition != -1 || ee.Watchdog || len(ee.Stack) == 0 {
			t.Fatalf("%s: %+v, want worker 0, s and w -1, a stack and no watchdog", tc.name, ee)
		}
		var b *kernels.BreakdownError
		if got := errors.As(err, &b); got != tc.breakdown || (ee.Breakdown() != nil) != tc.breakdown {
			t.Fatalf("%s: errors.As reaches a breakdown = %v, want %v", tc.name, got, tc.breakdown)
		}
		if _, err := RunInOrder(context.Background(), ks); err != nil {
			t.Fatal(err)
		}
		if !bitsSame(snap(), wantZ) {
			t.Fatalf("%s: a clean run after the fault differs from RunSeq's bits", tc.name)
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
