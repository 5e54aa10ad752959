package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/chaos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/order"
	"sparsefusion/internal/sparse"
)

// The scenario matrix: every scenario derives its faults from one fixed seed
// (a failing run replays exactly), runs under a harness watchdog, and must end
// in the typed error it names — or, for the storms, in nothing but typed
// errors and clean results. After every fault a clean run over the same kernel
// instances must reproduce the pre-fault reference bit for bit: a fault may
// abandon a run, it may never corrupt what the next run executes on.

const (
	seed    = 0x5eedc4a05
	threads = 4
	side    = 64 // Laplacian2D(side), nested-dissection reordered
	harness = 10 * time.Second
)

// subject is the fixture a scenario injects faults into: the Gauss-Seidel pair
// (SpTRSV-CSR feeding SpMV+b CSR, both gather kernels, so results are
// reproducible bit for bit at any width) with its schedule, a clean compiled
// runner and the clean reference output.
type subject struct {
	runner *exec.Runner
	ks     []kernels.Kernel
	sched  *core.Schedule
	snap   func() []float64
	ref    []float64
}

func newSubject() (*subject, error) {
	nat := sparse.Must(sparse.Laplacian2D(side))
	perm, err := order.NestedDissection(nat, 64)
	if err != nil {
		return nil, err
	}
	a, err := sparse.PermuteSym(nat, perm)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	y, z := make([]float64, n), make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(a.Lower(), sparse.RandomVec(n, 2), y)
	k2 := kernels.NewSpMVPlusCSR(a, y, sparse.RandomVec(n, 3), z)
	s := &subject{
		ks:   []kernels.Kernel{k1, k2},
		snap: func() []float64 { return append([]float64(nil), z...) },
	}
	loops := &core.Loops{G: []*dag.Graph{k1.DAG(), k2.DAG()}, F: []*sparse.CSR{core.FPattern(a)}}
	s.sched, err = core.ICO(loops, core.Params{Threads: threads, ReuseRatio: 0.5, LBC: lbc.Params{InitialCut: 3, Agg: 8}})
	if err != nil {
		return nil, err
	}
	if s.runner, err = compiled(s.ks, s.sched); err != nil {
		return nil, err
	}
	if _, err := s.runner.Run(threads); err != nil {
		return nil, fmt.Errorf("clean reference run: %w", err)
	}
	s.ref = s.snap()
	return s, nil
}

// armed compiles the subject's schedule over its kernels with kernel loop
// replaced by a fault injector.
func (s *subject) armed(loop int, k kernels.Kernel) (*exec.Runner, error) {
	ks := append([]kernels.Kernel(nil), s.ks...)
	ks[loop] = k
	return compiled(ks, s.sched)
}

// compiled binds ks to sched on the compiled rung, the subject's rung.
func compiled(ks []kernels.Kernel, sched *core.Schedule) (*exec.Runner, error) {
	prog, err := core.CompileSchedule(sched, len(ks))
	if err != nil {
		return nil, err
	}
	return exec.NewRunner(ks, prog), nil
}

// rerunClean runs the clean runner again, over the kernel instances a fault
// just abandoned mid-run, and insists on the reference bits.
func (s *subject) rerunClean() error {
	if _, err := s.runner.Run(threads); err != nil {
		return fmt.Errorf("post-fault clean run: %w", err)
	}
	if !bitsEqual(s.snap(), s.ref) {
		return errors.New("post-fault clean run diverged from the reference")
	}
	return nil
}

func bitsEqual(a, b []float64) bool {
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

func TestScenarios(t *testing.T) {
	tierDir := t.TempDir()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"cancel-storm", cancelStorm},
		{"worker-panic", workerPanic},
		{"breakdown", breakdown},
		{"slow-worker-watchdog", slowWorkerWatchdog},
		{"disk-cache-defects", func() error { return diskCacheDefects(tierDir) }},
		{"overload-deadline", overloadDeadline},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := chaos.Under(harness, c.run); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// cancelStorm: repeated runs, each under a context cancelled at a seeded
// instant inside twice the run's own duration. Every outcome must be a clean
// result or a typed *exec.CancelledError; afterwards the same runner must
// still produce the reference bits.
func cancelStorm() error {
	sub, err := newSubject()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := sub.runner.Run(threads); err != nil {
		return err
	}
	window := max(2*time.Since(t0), 100*time.Microsecond)
	rng := chaos.NewRng(seed)
	const runs = 32
	cancelled := 0
	for i := 0; i < runs; i++ {
		ctx, cancel := rng.CancelAfter(context.Background(), window)
		_, err := sub.runner.RunContext(ctx, threads)
		cancel()
		if err == nil {
			continue
		}
		var c *exec.CancelledError
		if !errors.As(err, &c) {
			return fmt.Errorf("run %d returned %T (%v), want *exec.CancelledError or success", i, err, err)
		}
		cancelled++
	}
	if cancelled == 0 {
		return fmt.Errorf("none of %d seeded windows cancelled a run; widen the storm", runs)
	}
	return sub.rerunClean()
}

// workerPanic: one iteration panics with a plain value. The pool must recover
// it into an *exec.ExecError — not a watchdog trip, not a hang — with the
// message preserved, and the kernels must survive for the next run.
func workerPanic() error {
	sub, err := newSubject()
	if err != nil {
		return err
	}
	faulty, err := sub.armed(1, chaos.NewPanic(sub.ks[1], sub.ks[1].Iterations()/2))
	if err != nil {
		return err
	}
	_, err = faulty.Run(threads)
	var xe *exec.ExecError
	if !errors.As(err, &xe) || xe.Watchdog {
		return fmt.Errorf("got %T (%v), want a non-watchdog *exec.ExecError", err, err)
	}
	if got := fmt.Sprint(xe.Recovered); !strings.Contains(got, "chaos: injected panic") {
		return fmt.Errorf("recovered %q lost the injected panic value", got)
	}
	return sub.rerunClean()
}

// breakdown: one iteration raises a typed *kernels.BreakdownError, exactly as
// a zero pivot does. errors.As must reach it, and its row, through the
// executor's wrapping.
func breakdown() error {
	sub, err := newSubject()
	if err != nil {
		return err
	}
	row := sub.ks[1].Iterations() / 3
	faulty, err := sub.armed(1, chaos.NewBreakdown(sub.ks[1], row))
	if err != nil {
		return err
	}
	_, err = faulty.Run(threads)
	var brk *kernels.BreakdownError
	if !errors.As(err, &brk) || brk.Row != row {
		return fmt.Errorf("got %T (%v), want *kernels.BreakdownError at row %d", err, err, row)
	}
	return sub.rerunClean()
}

// slowWorkerWatchdog: one iteration stalls far past a 40 ms barrier watchdog.
// The stall must land on a non-calling worker slot — the caller cannot time
// out on its own arrival — so the armed iteration is read off the schedule: on
// the static path w-partition w of an s-partition runs on pool slot w and slot
// 0 is the caller, so anything in w-partition 1 of a wide s-partition is off
// the caller.
func slowWorkerWatchdog() error {
	sub, err := newSubject()
	if err != nil {
		return err
	}
	var at *core.Iter
	for _, sp := range sub.sched.S {
		if len(sp) >= 2 && len(sp[1]) > 0 {
			at = &sp[1][0]
			break
		}
	}
	if at == nil {
		return errors.New("schedule has no wide s-partition to stall")
	}
	// The stall is 50 watchdog bounds long so that a descheduled test process
	// cannot wake to find the timer and the worker ready together; nothing
	// waits for it to end.
	faulty, err := sub.armed(at.Loop, chaos.NewDelay(sub.ks[at.Loop], at.Idx, 2*time.Second))
	if err != nil {
		return err
	}
	faulty.Configure(exec.Config{Watchdog: 40 * time.Millisecond})
	_, err = faulty.Run(threads)
	var xe *exec.ExecError
	if !errors.As(err, &xe) || !xe.Watchdog {
		return fmt.Errorf("stalled loop %d iteration %d, got %T (%v), want a watchdog *exec.ExecError", at.Loop, at.Idx, err, err)
	}
	// A watchdog trip abandons the run's vectors to the straggler, which wakes
	// and writes them arbitrarily late: the contract is start from fresh, not
	// reuse. A fresh subject, sharing no memory with the leaked worker, must
	// reproduce the reference.
	fresh, err := newSubject()
	if err != nil {
		return err
	}
	if !bitsEqual(fresh.ref, sub.ref) {
		return errors.New("fresh subject after the watchdog trip diverged from the reference")
	}
	return nil
}

// diskCacheDefects: a seeded byte flip inside a schedule container, then a
// torn tail. Each must be quarantined (renamed .bad) on the next load and
// rebuilt, and the rebuilt schedule must solve to the cache-less reference
// bits.
func diskCacheDefects(dir string) error {
	m := sf.Laplacian2D(side)
	input := sparse.RandomVec(m.Rows(), 7)
	solve := func(sc *sf.ScheduleCache) ([]float64, error) {
		op, err := sf.NewOperation(sf.TrsvTrsv, m, sf.Options{Threads: threads, Cache: sc})
		if err != nil {
			return nil, err
		}
		if err := op.SetInput(input); err != nil {
			return nil, err
		}
		if _, err := op.Run(); err != nil {
			return nil, err
		}
		return op.Output(), nil
	}
	ref, err := solve(nil)
	if err != nil {
		return err
	}
	if _, err := solve(sf.NewScheduleCache(sf.CacheConfig{Dir: dir})); err != nil { // seed the tier
		return err
	}
	for _, d := range []struct {
		name   string
		damage func(path string) error
	}{
		{"corrupt", func(p string) error { return chaos.CorruptFile(p, seed) }},
		{"truncate", func(p string) error { return chaos.TruncateFile(p, 40) }}, // tears the fingerprint
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.sched"))
		if err != nil || len(files) != 1 {
			return fmt.Errorf("%s: want exactly one tier file, got %v (%v)", d.name, files, err)
		}
		if err := d.damage(files[0]); err != nil {
			return err
		}
		sc := sf.NewScheduleCache(sf.CacheConfig{Dir: dir}) // a later process warm-starting
		got, err := solve(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		if q := sc.Stats().DiskQuarantines; q != 1 {
			return fmt.Errorf("%s: %d quarantines, want 1", d.name, q)
		}
		if _, err := os.Stat(files[0] + ".bad"); err != nil {
			return fmt.Errorf("%s: no .bad corpse after quarantine: %w", d.name, err)
		}
		if !bitsEqual(got, ref) {
			return fmt.Errorf("%s: rebuilt schedule diverged from the cache-less reference", d.name)
		}
	}
	return nil
}

// overloadDeadline: a 1-pool, 1-slot-queue server under 16 concurrent clients
// with sub-millisecond deadlines, plus a batch of already-expired requests.
// Every failure must be typed — ErrServerOverloaded at the queue bound,
// ErrDeadlineExceeded while queued, *CancelledError once in flight.
func overloadDeadline() error {
	op, err := sf.NewOperation(sf.TrsvTrsv, sf.Laplacian2D(side), sf.Options{Threads: threads})
	if err != nil {
		return err
	}
	sv := sf.NewServer(sf.ServerConfig{MaxConcurrent: 1, Width: threads, MaxQueue: 1})
	defer sv.Close()

	var deadlined atomic.Int64
	var mu sync.Mutex
	var untyped error
	tally := func(err error) {
		var c *sf.CancelledError
		switch {
		case err == nil, errors.Is(err, sf.ErrServerOverloaded), errors.As(err, &c):
		case errors.Is(err, sf.ErrDeadlineExceeded):
			deadlined.Add(1)
		default:
			mu.Lock()
			untyped = fmt.Errorf("untyped admission outcome %T (%v)", err, err)
			mu.Unlock()
		}
	}

	// Already-expired requests are rejected before any queueing.
	expired, cancelExpired := context.WithTimeout(context.Background(), -time.Second)
	defer cancelExpired()
	for i := 0; i < 4; i++ {
		s, err := op.NewSession()
		if err != nil {
			return err
		}
		_, err = s.RunOnContext(expired, sv)
		if err == nil {
			return errors.New("expired request was admitted")
		}
		tally(err)
	}

	const clients, perClient = 16, 24
	sessions := make([]*sf.Session, clients)
	for c := range sessions {
		if sessions[c], err = op.NewSession(); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *sf.Session) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
				_, err := s.RunOnContext(ctx, sv)
				cancel()
				tally(err)
			}
		}(s)
	}
	wg.Wait()
	if untyped != nil {
		return untyped
	}
	if deadlined.Load() == 0 {
		return errors.New("no request was rejected for its deadline")
	}
	return nil
}

// TestRngReplays: a seed is a reproduction recipe only if the sequence behind
// it never changes.
func TestRngReplays(t *testing.T) {
	a, b := chaos.NewRng(seed), chaos.NewRng(seed)
	for i := 0; i < 64; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d: %#x then %#x from one seed", i, x, y)
		}
	}
	if got := chaos.NewRng(1).Next(); got != 0x910a2dec89025cc1 {
		t.Fatalf("splitmix64(1) first draw = %#x: the generator changed, old seeds no longer replay", got)
	}
}

func TestUnderReportsStuck(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	err := chaos.Under(10*time.Millisecond, func() error { <-release; return nil })
	if !errors.Is(err, chaos.ErrStuck) {
		t.Fatalf("a scenario that never returns gave %v, want ErrStuck", err)
	}
}
