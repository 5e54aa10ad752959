package sparsefusion

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The serving contract under test: a shared ScheduleCache inspects each
// fingerprint exactly once however many tenants ask concurrently (the
// thundering-herd guarantee), cached artifacts are bit-identical to freshly
// inspected ones — including after a disk-tier reload — and concurrent
// Sessions over one operation compute exactly what a private operation
// would, under the race detector.

// TestCacheHerdInspectsOnce hammers one cold cache with concurrent
// NewOperation calls for the same matrix and options: exactly one inspection
// may run, everyone must share its schedule, and nobody may hang.
func TestCacheHerdInspectsOnce(t *testing.T) {
	const tenants = 16
	m := RandomSPD(400, 4, 11)
	sc := NewScheduleCache(CacheConfig{})
	opts := Options{Threads: 4, Cache: sc}

	ops := make([]*Operation, tenants)
	err := watchdog(t, 30*time.Second, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, tenants)
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				op, err := NewOperation(TrsvTrsv, m, opts)
				if err != nil {
					errs <- err
					return
				}
				ops[i] = op
			}(i)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}

	st := sc.Stats()
	if st.Misses != 1 {
		t.Fatalf("herd of %d ran %d inspections, want exactly 1 (stats %+v)", tenants, st.Misses, st)
	}
	if got := st.Hits + st.Waits; got != tenants-1 {
		t.Fatalf("hits+waits = %d, want %d (stats %+v)", got, tenants-1, st)
	}
	if hr := st.HitRate(); hr <= 0.9 {
		t.Fatalf("hit rate %.3f, want > 0.9", hr)
	}
	for i, op := range ops {
		if op.prog != ops[0].prog {
			t.Fatalf("tenant %d got a different compiled program — artifacts not shared", i)
		}
	}
}

// TestCachedArtifactsBitIdentical compares a cache-served operation against a
// freshly inspected one (the Schedule.Bytes oracle), then round-trips the
// cache's disk tier through a second cache — simulating a new process — and
// re-checks both the serialized schedule and the solve output.
func TestCachedArtifactsBitIdentical(t *testing.T) {
	m := RandomSPD(400, 4, 13)
	dir := t.TempDir()
	opts := Options{Threads: 4}

	fresh, err := NewOperation(TrsvTrsv, m, opts)
	if err != nil {
		t.Fatal(err)
	}

	sc := NewScheduleCache(CacheConfig{Dir: dir})
	cachedOpts := opts
	cachedOpts.Cache = sc
	warm, err := NewOperation(TrsvTrsv, m, cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.schedule().Bytes(), warm.schedule().Bytes()) {
		t.Fatal("cache-built schedule differs from freshly inspected schedule")
	}

	// Second cache over the same directory: the entry must come off disk
	// (no inspection) and still be bit-identical.
	sc2 := NewScheduleCache(CacheConfig{Dir: dir})
	cachedOpts.Cache = sc2
	reloaded, err := NewOperation(TrsvTrsv, m, cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if st := sc2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk tier not used: %+v", st)
	}
	if !bytes.Equal(fresh.schedule().Bytes(), reloaded.schedule().Bytes()) {
		t.Fatal("disk-reloaded schedule differs from freshly inspected schedule")
	}

	// Same input through all three operations must produce identical bits.
	x := make([]float64, m.Rows())
	for i := range x {
		x[i] = 1.0 + float64(i%7)
	}
	outputs := make([][]float64, 0, 3)
	for _, op := range []*Operation{fresh, warm, reloaded} {
		if err := op.SetInput(x); err != nil {
			t.Fatal(err)
		}
		if _, err := op.Run(); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, op.Output())
	}
	for oi, out := range outputs[1:] {
		for i := range out {
			if out[i] != outputs[0][i] {
				t.Fatalf("operation %d output[%d] = %v, fresh %v", oi+1, i, out[i], outputs[0][i])
			}
		}
	}
}

// TestConcurrentSessionsMatchReference is the shared-artifact race test: N
// sessions over one cached operation solve different right-hand sides
// concurrently through a bounded server, and each result must be
// bit-identical to a private operation solving the same input. Run under
// -race this also proves the artifact sharing is data-race-free. The scatter
// combination runs on a reordered matrix, so its schedule has width and its
// layout redirects contended updates into spill slots: the sessions share
// that layout and must not share the slots.
func TestConcurrentSessionsMatchReference(t *testing.T) {
	reordered, _, err := RandomSPD(600, 6, 18).Reorder()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("TrsvTrsv", func(t *testing.T) { concurrentSessions(t, TrsvTrsv, RandomSPD(400, 4, 17)) })
	t.Run("TrsvMv", func(t *testing.T) { concurrentSessions(t, TrsvMv, reordered) })
}

func concurrentSessions(t *testing.T, combo Combination, m *Matrix) {
	const clients = 8
	sc := NewScheduleCache(CacheConfig{})
	op, err := NewOperation(combo, m, Options{Threads: 4, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if combo == TrsvMv {
		if sc := op.layout.Scatter[1]; op.prog.MaxWidth < 2 || sc == nil || sc.Redirected == 0 {
			t.Fatalf("width %d, scatter %+v: the fixture redirects nothing", op.prog.MaxWidth, sc)
		}
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 3, Width: op.prog.MaxWidth})
	defer sv.Close()

	inputs := make([][]float64, clients)
	wants := make([][]float64, clients)
	for i := range inputs {
		x := make([]float64, m.Rows())
		for j := range x {
			x[j] = float64((i+1)*(j%13+1)) * 0.25
		}
		inputs[i] = x
		ref, err := NewOperation(combo, m, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInput(x); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		wants[i] = ref.Output()
	}

	err = watchdog(t, 30*time.Second, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := op.NewSession()
				if err != nil {
					errs <- err
					return
				}
				if s.layout != op.layout || s.Mode() != ModePacked {
					errs <- errors.New("session does not run the operation's packed layout")
					return
				}
				if err := s.SetInput(inputs[i]); err != nil {
					errs <- err
					return
				}
				// Solve repeatedly — rerunning one session must be stable.
				for rep := 0; rep < 3; rep++ {
					if _, err := s.RunOn(sv); err != nil {
						errs <- err
						return
					}
				}
				got := s.Output()
				for j := range got {
					if got[j] != wants[i][j] {
						errs <- errors.New("session output differs from private reference")
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := sv.Stats(); st.Admitted != clients*3 {
		t.Fatalf("server admitted %d runs, want %d (stats %+v)", st.Admitted, clients*3, st)
	}
	if st := sc.Stats(); st.Misses != 1 {
		t.Fatalf("sessions triggered extra inspections: %+v", st)
	}
}

// watchPeakActive polls the server's in-flight gauge until the returned
// function is called, which stops the poller and reports the highest value
// it saw.
func watchPeakActive(sv *Server) (stop func() int64) {
	done := make(chan struct{})
	peak := make(chan int64, 1)
	go func() {
		var p int64
		for {
			select {
			case <-done:
				peak <- p
				return
			default:
				p = max(p, sv.Stats().Active)
				runtime.Gosched()
			}
		}
	}()
	return func() int64 {
		close(done)
		return <-peak
	}
}

// TestWideScheduleOnNarrowServer: a schedule wider than the server's worker
// sets cannot run on one — a round needs a slot per w-partition — so the
// ladder runs it on a private, schedule-wide worker set while holding the
// admission slot it was given. A Threads: 4 operation and its session on a
// one-slot, width-2 server must return the bits of a cache-less private
// operation, one execution at a time.
func TestWideScheduleOnNarrowServer(t *testing.T) {
	const runs = 6
	m := RandomSPD(600, 5, 23)
	x := make([]float64, m.Rows())
	for i := range x {
		x[i] = 1 + float64(i%11)/4
	}
	ref, err := NewOperation(TrsvTrsv, m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInput(x); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Output()

	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2})
	defer sv.Close()
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 4, Cache: NewScheduleCache(CacheConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if w := op.prog.MaxWidth; w <= sv.Stats().Width {
		t.Fatalf("schedule width %d fits the server's worker sets: the fixture tests nothing", w)
	}
	sess, err := op.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	type client interface {
		SetInput([]float64) error
		RunOn(*Server) (Report, error)
		Output() []float64
	}
	clients := []client{op, sess}

	peak := watchPeakActive(sv)
	err = watchdog(t, 30*time.Second, func() error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c client) {
				defer wg.Done()
				if errs[i] = c.SetInput(x); errs[i] != nil {
					return
				}
				for r := 0; r < runs; r++ {
					if _, err := c.RunOn(sv); err != nil {
						errs[i] = fmt.Errorf("client %d run %d: %w", i, r, err)
						return
					}
					if !bitsSame(c.Output(), want) {
						errs[i] = fmt.Errorf("client %d run %d differs from the private reference", i, r)
						return
					}
				}
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	p := peak()
	if err != nil {
		t.Fatal(err)
	}
	if p > 1 {
		t.Fatalf("%d executions in flight on a one-slot server", p)
	}
	if st := sv.Stats(); st.Admitted != 2*runs || st.Active != 0 {
		t.Fatalf("server after %d runs: %+v", 2*runs, st)
	}
	for i, h := range []Health{op.Health(), sess.Health()} {
		if h.Mode != ModePacked || len(h.Demotions) != 0 {
			t.Fatalf("client %d: %+v, want packed with no demotions", i, h)
		}
	}
}

// TestSessionRequiresPureCombination: factor chains mutate the shared matrix
// and must refuse to clone.
func TestSessionRequiresPureCombination(t *testing.T) {
	op, err := NewOperation(DscalIlu0, RandomSPD(200, 4, 5), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.NewSession(); !errors.Is(err, ErrNotCloneable) {
		t.Fatalf("NewSession on a factor combination returned %v, want ErrNotCloneable", err)
	}
}

// TestSavedScheduleFingerprintMismatch: loading a saved schedule for the
// wrong matrix or options fails with the typed mismatch error before the
// payload is considered.
func TestSavedScheduleFingerprintMismatch(t *testing.T) {
	m1 := RandomSPD(300, 4, 19)
	m2 := RandomSPD(300, 4, 23) // same size, different pattern
	op, err := NewOperation(TrsvTrsv, m1, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := op.SaveSchedule(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	var mm *ScheduleMismatchError
	if _, err := NewOperationFromSchedule(TrsvTrsv, m2, bytes.NewReader(saved), Options{Threads: 4}); !errors.As(err, &mm) {
		t.Fatalf("wrong-pattern load returned %v, want *ScheduleMismatchError", err)
	}
	if mm.Want == mm.Got || mm.Want == "" || mm.Got == "" {
		t.Fatalf("mismatch error fingerprints not populated: %+v", mm)
	}
	// Different scheduling options are a different artifact too.
	if _, err := NewOperationFromSchedule(TrsvTrsv, m1, bytes.NewReader(saved), Options{Threads: 5}); !errors.As(err, &mm) {
		t.Fatalf("wrong-options load returned %v, want *ScheduleMismatchError", err)
	}
	// The matching load still works and carries the fingerprint.
	loaded, err := NewOperationFromSchedule(TrsvTrsv, m1, bytes.NewReader(saved), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != op.Fingerprint() {
		t.Fatalf("loaded fingerprint %s, want %s", loaded.Fingerprint(), op.Fingerprint())
	}
}
