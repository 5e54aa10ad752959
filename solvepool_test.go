package sparsefusion

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
)

// The worker sets under test: a FusedCG solve without a server runs all its
// chain passes on one worker set, held spinning, and closes it however the
// solve ends. Every other run without a server starts and closes a worker set
// of its own. No worker set, served or not, keeps a dropped operation or
// session alive.

// settledGoroutines waits until the goroutine count stops moving — a worker
// set closed by an earlier test may still be winding down — and returns it.
func settledGoroutines() int {
	n, same := -1, 0
	for i := 0; i < 200 && same < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// requireGoroutines fails the test unless the goroutine count falls back to
// base within a few seconds.
func requireGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%d goroutines after %s, %d before: its workers outlived it", runtime.NumGoroutine(), after, base)
}

// wideSlot returns an iteration the schedule places on a non-calling slot of
// a wide s-partition, so that a worker goroutine, never the caller, runs it.
func wideSlot(t *testing.T, f *FusedCG) (loop, iter int) {
	t.Helper()
	for _, sp := range f.schedule().S {
		if len(sp) >= 2 && len(sp[1]) > 0 {
			return sp[1][0].Loop, sp[1][0].Idx
		}
	}
	t.Fatal("the chain has no wide s-partition")
	return 0, 0
}

// swapKernel rebinds f's runner to its kernels with kernel loop replaced by k,
// on the compiled rung over f's own program.
func swapKernel(f *FusedCG, loop int, k kernels.Kernel) {
	ks := append([]kernels.Kernel(nil), f.inst.Kernels...)
	ks[loop] = k
	f.mu.Lock()
	f.runner, f.layout = exec.NewRunner(ks, f.prog), nil
	f.mu.Unlock()
}

// openCG opens a two-thread FusedCG on m.
func openCG(t *testing.T, m *Matrix, opts FusedCGOptions) *FusedCG {
	t.Helper()
	opts.Threads = 2
	f, err := NewFusedCG(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRunsLeaveNoWorkers: a run without a server leaves no worker behind —
// after each of 50 Operation.Runs the goroutine count falls back to where it
// started (a closed worker may take a moment to exit), and nothing waits on
// the garbage collector to get there. TestSolveClosesItsWorkerSet does the
// same for solves.
func TestRunsLeaveNoWorkers(t *testing.T) {
	m := mustReorder(t, Laplacian2D(30))
	op, err := NewOperation(TrsvMv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := runWith(t, &op.execState, testInput(m.Rows()))
	n := settledGoroutines()
	for i := 0; i < 50; i++ {
		if _, err := op.Run(); err != nil {
			t.Fatal(err)
		}
		requireGoroutines(t, n, "a Run")
	}
	if !bitsSame(op.Output(), want) {
		t.Fatal("repeated runs diverged")
	}
}

// recordG notes which goroutine runs iteration iter of its kernel.
type recordG struct {
	kernels.Kernel
	iter int
	mu   sync.Mutex
	ids  []string
}

func (k *recordG) Run(i int) {
	if i == k.iter {
		buf := make([]byte, 64)
		id, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
		k.mu.Lock()
		k.ids = append(k.ids, id)
		k.mu.Unlock()
	}
	k.Kernel.Run(i)
}

// TestSolveKeepsOneWorkerSet: every chain pass of one solve runs its wide
// rounds on the same worker goroutines, and the next solve on new ones.
func TestSolveKeepsOneWorkerSet(t *testing.T) {
	m := mustReorder(t, Laplacian2D(30))
	b := cgRHS(m.Rows())
	f := openCG(t, m, FusedCGOptions{Precondition: true})
	loop, iter := wideSlot(t, f)
	rec := &recordG{Kernel: f.inst.Kernels[loop], iter: iter}
	swapKernel(f, loop, rec)
	var first string
	for solve := 0; solve < 2; solve++ {
		rec.ids = nil
		_, it, _, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.ids) != it || it < 2 {
			t.Fatalf("solve %d: the recorded iteration ran %d times in %d passes", solve, len(rec.ids), it)
		}
		for p, id := range rec.ids {
			if id != rec.ids[0] {
				t.Fatalf("solve %d: pass %d ran on %s, pass 0 on %s", solve, p, id, rec.ids[0])
			}
		}
		if solve == 0 {
			first = rec.ids[0]
		} else if rec.ids[0] == first {
			t.Fatalf("two solves ran on the same worker %s: the first solve's set was not closed", first)
		}
	}
}

// stallAt blocks its iteration iter until release is closed: a worker that
// stays away from the barrier for as long as the test wants.
type stallAt struct {
	kernels.Kernel
	iter    int
	release chan struct{}
}

func (k *stallAt) Run(i int) {
	if i == k.iter {
		<-k.release
	}
	k.Kernel.Run(i)
}

// TestSolveClosesItsWorkerSet: a solve closes the worker set it held however
// the solve ends — converged, out of iterations, broken down, cancelled or
// tripped by the watchdog — so no worker outlives it, spinning or parked.
func TestSolveClosesItsWorkerSet(t *testing.T) {
	m := mustReorder(t, Laplacian2D(30))
	b := cgRHS(m.Rows())

	f := openCG(t, m, FusedCGOptions{Precondition: true})
	base := settledGoroutines()
	if _, it, _, err := f.Solve(b); err != nil || it >= f.maxIter {
		t.Fatalf("converged: %d iterations, %v", it, err)
	}
	requireGoroutines(t, base, "a converged solve")

	f = openCG(t, m, FusedCGOptions{Precondition: true, Tol: 1e-300, MaxIter: 3})
	if _, it, _, err := f.Solve(b); err != nil || it != 3 {
		t.Fatalf("max-iter: %d iterations, %v; want 3 and no error", it, err)
	}
	requireGoroutines(t, base, "a solve that ran out of iterations")

	a := mustReorder(t, Laplacian2D(30)).csr.Clone()
	for i := range a.X {
		a.X[i] = -a.X[i]
	}
	neg := newMatrix(a)
	f = openCG(t, neg, FusedCGOptions{})
	var brk *kernels.BreakdownError
	if _, _, _, err := f.Solve(b); !errors.As(err, &brk) {
		t.Fatalf("breakdown: got %v, want a *kernels.BreakdownError", err)
	}
	requireGoroutines(t, base, "a solve that broke down")

	f = openCG(t, m, FusedCGOptions{Precondition: true})
	var c *CancelledError
	if _, _, _, err := f.SolveContext(newCountdownCtx(10), b); !errors.As(err, &c) {
		t.Fatalf("cancel: got %v, want a *CancelledError", err)
	}
	requireGoroutines(t, base, "a cancelled solve")

	// The watchdog bound reaches the solve's worker set: a stalled worker
	// trips it, and the straggler exits once it finishes its iteration.
	f = openCG(t, m, FusedCGOptions{Options: Options{Watchdog: 30 * time.Millisecond}, Precondition: true})
	loop, iter := wideSlot(t, f)
	stall := &stallAt{Kernel: f.inst.Kernels[loop], iter: iter, release: make(chan struct{})}
	swapKernel(f, loop, stall)
	var xe *ExecError
	_, _, _, err := f.Solve(b)
	close(stall.release)
	if !errors.As(err, &xe) || !xe.Watchdog {
		t.Fatalf("watchdog: got %v, want a watchdog *ExecError", err)
	}
	requireGoroutines(t, base, "a watchdog trip")
}

// TestIdleWorkerSetsPinNothing: a worker set keeps nothing of the last run it
// served. A session that ran on a server, and an operation after Run, are
// collected once dropped — their input vectors with them.
func TestIdleWorkerSetsPinNothing(t *testing.T) {
	m := mustReorder(t, Laplacian2D(30))
	x := testInput(m.Rows())
	op, err := NewOperation(TrsvMv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2})
	defer sv.Close()
	for _, c := range []struct {
		name string
		open func() (*execState, error)
		run  func(*execState) error
	}{
		{"session on a server", func() (*execState, error) {
			s, err := op.NewSession()
			if err != nil {
				return nil, err
			}
			return &s.execState, nil
		}, func(e *execState) error { _, err := e.RunOn(sv); return err }},
		{"operation after Run", func() (*execState, error) {
			o, err := NewOperation(TrsvMv, m, Options{Threads: 2})
			if err != nil {
				return nil, err
			}
			return &o.execState, nil
		}, func(e *execState) error { _, err := e.Run(); return err }},
	} {
		freed := make(chan struct{})
		func() {
			e, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetInput(x); err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(&e.inst.Input[0], func(*float64) { close(freed) })
			if err := c.run(e); err != nil {
				t.Fatal(err)
			}
		}()
		collected := false
		for i := 0; i < 20 && !collected; i++ {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !collected {
			t.Fatalf("%s: a worker set keeps the dropped owner's input vector alive", c.name)
		}
	}
	if _, err := op.RunOn(sv); err != nil {
		t.Fatal(err)
	}
}
