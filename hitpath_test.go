package sparsefusion

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The hit path under test: NewOperation with a cache looks up before it
// builds, so an operation opened on a cached schedule holds kernels, vectors
// and an executor binding — no DAGs, no F, no triangle or CSC of its own — and
// derives the fusion input only when something asks for it. It must still
// compute exactly what the operation that populated the cache computes.

func mustReorder(t *testing.T, m *Matrix) *Matrix {
	t.Helper()
	r, _, err := m.Reorder()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testInput(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + float64(i%11)*0.125
	}
	return x
}

// runWith sets the input (where the combination takes one), runs, and returns
// the output.
func runWith(t *testing.T, e *execState, x []float64) []float64 {
	t.Helper()
	if e.inst.Input != nil {
		if err := e.SetInput(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Output()
}

// TestHitOpenMatchesPopulator: an operation opened by a hit, and a session of
// it, return the bits of the operation whose miss populated the cache — and
// get there without deriving the fusion input.
func TestHitOpenMatchesPopulator(t *testing.T) {
	fixtures := []struct {
		name string
		m    *Matrix
	}{
		{"pow:4000:6", mustReorder(t, PowerLawSPD(4000, 6, 31))},
		{"lap2d:40", mustReorder(t, Laplacian2D(40))},
	}
	for _, fx := range fixtures {
		x := testInput(fx.m.Rows())
		for _, c := range []Combination{TrsvTrsv, TrsvMv, MvMv, DscalIlu0} {
			for _, th := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s %s threads=%d", fx.name, c, th)
				sc := NewScheduleCache(CacheConfig{})
				opts := Options{Threads: th, Cache: sc}
				first, err := NewOperation(c, fx.m, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				hit, err := NewOperation(c, fx.m, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st := sc.Stats(); st.Misses != 1 || st.Hits != 1 {
					t.Fatalf("%s: want one miss then one hit, got %+v", name, st)
				}
				if hit.prog != first.prog || hit.layout != first.layout {
					t.Fatalf("%s: hit does not share the populator's artifacts", name)
				}
				want := runWith(t, &first.execState, x)
				if got := runWith(t, &hit.execState, x); !bitsSame(got, want) {
					t.Fatalf("%s: hit operation differs from the populating operation", name)
				}
				sess, err := hit.NewSession()
				if c == DscalIlu0 {
					if !errors.Is(err, ErrNotCloneable) {
						t.Fatalf("%s: NewSession returned %v, want ErrNotCloneable", name, err)
					}
				} else {
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := runWith(t, &sess.execState, x); !bitsSame(got, want) {
						t.Fatalf("%s: session of a hit operation differs from the populating operation", name)
					}
					if sess.inst.Loops != nil {
						t.Fatalf("%s: running a session derived the fusion input", name)
					}
				}
				if hit.inst.Loops != nil {
					t.Fatalf("%s: a hit open and its runs derived the fusion input", name)
				}
			}
		}
	}
}

// scaledCopy is a second Matrix with m's pattern and different values.
func scaledCopy(t *testing.T, m *Matrix) *Matrix {
	t.Helper()
	a := m.csr
	var es []Entry
	for r := 0; r < a.Rows; r++ {
		for p := a.P[r]; p < a.P[r+1]; p++ {
			es = append(es, Entry{Row: r, Col: a.I[p], Val: a.X[p] * (1.5 + 0.25*float64((r+a.I[p])%3))})
		}
	}
	m2, err := NewMatrix(a.Rows, a.Cols, es)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// TestHitWithOtherValuesPacksItsOwnLayout: two matrices with one pattern share
// a fingerprint, so the second opens on a hit and shares schedule and program
// — but the packed layout copied the first one's values. The checksums that
// decide this are memoized per Matrix: the second matrix must be told apart
// (private layout, its own oracle's answer) and the first must keep sharing.
func TestHitWithOtherValuesPacksItsOwnLayout(t *testing.T) {
	m1 := mustReorder(t, PowerLawSPD(4000, 6, 33))
	m2 := scaledCopy(t, m1)
	x := testInput(m1.Rows())
	for _, c := range []Combination{TrsvTrsv, TrsvMv, MvMv} {
		sc := NewScheduleCache(CacheConfig{})
		opts := Options{Threads: 2, Cache: sc}
		op1, err := NewOperation(c, m1, opts)
		if err != nil {
			t.Fatal(err)
		}
		op2, err := NewOperation(c, m2, opts)
		if err != nil {
			t.Fatal(err)
		}
		again, err := NewOperation(c, m1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := sc.Stats(); st.Misses != 1 || st.Hits != 2 {
			t.Fatalf("%s: want one miss and two hits, got %+v", c, st)
		}
		if op2.prog != op1.prog {
			t.Fatalf("%s: same pattern, different values: schedule and program must be shared", c)
		}
		if op2.layout == nil || op2.layout == op1.layout || op2.Mode() != ModePacked {
			t.Fatalf("%s: second matrix must run packed on a layout of its own values", c)
		}
		if again.layout != op1.layout {
			t.Fatalf("%s: first matrix stopped sharing the cached layout", c)
		}
		sess, err := op2.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if sess.layout != op2.layout {
			t.Fatalf("%s: session repacked its operation's layout", c)
		}

		out1 := runWith(t, &op1.execState, x)
		out2 := runWith(t, &op2.execState, x)
		ref, err := combos.Build(combos.ID(c), m2.csr)
		if err != nil {
			t.Fatal(err)
		}
		copy(ref.Input, x)
		if _, err := ref.RunSequential(); err != nil {
			t.Fatal(err)
		}
		if e := sparse.RelErr(out2, ref.Snapshot()); e > 1e-9 {
			t.Fatalf("%s: second matrix is off its own sequential oracle by %g", c, e)
		}
		if sparse.RelErr(out2, out1) < 1e-3 {
			t.Fatalf("%s: second matrix returned the first matrix's answer", c)
		}
		if got := runWith(t, &sess.execState, x); !bitsSame(got, out2) {
			t.Fatalf("%s: session differs from its operation", c)
		}
	}
}

// TestCachedFactorOperationsArePrivate: DAD-ILU0 overwrites matrix values, so
// two operations over one Matrix — sharing a cached schedule — must each
// factor a private copy and leave the Matrix alone.
func TestCachedFactorOperationsArePrivate(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	orig := append([]float64(nil), m.csr.X...)
	opts := Options{Threads: 2, Cache: NewScheduleCache(CacheConfig{})}
	op1, err := NewOperation(DscalIlu0, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := NewOperation(DscalIlu0, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if op2.prog != op1.prog {
		t.Fatal("second operation did not open on the cached schedule")
	}
	if _, err := op1.Run(); err != nil {
		t.Fatal(err)
	}
	factor := op1.Output()
	if bitsSame(factor, orig) {
		t.Fatal("fixture: the factor equals the input values")
	}
	if !bitsSame(op2.Output(), orig) {
		t.Fatal("running one operation changed the other's matrix values")
	}
	if !bitsSame(m.csr.X, orig) {
		t.Fatal("running a factorization wrote into the Matrix")
	}
	if _, err := op2.Run(); err != nil {
		t.Fatal(err)
	}
	if !bitsSame(op2.Output(), factor) || !bitsSame(op1.Output(), factor) {
		t.Fatal("the two operations' factors differ")
	}
}

// TestHitOperationDerivesOnDemand: what a hit skipped, nothing after open
// needs. SaveSchedule and ReuseRatio read the program, and an executor fault
// (from the operation or from one of its sessions) demotes to the kernels in
// program order: none of them builds a kernel DAG or F (no inspect.dag_build
// event).
func TestHitOperationDerivesOnDemand(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(4000, 6, 35))
	x := testInput(m.Rows())
	var events bytes.Buffer
	sc := NewScheduleCache(CacheConfig{})
	opts := Options{Threads: 2, Cache: sc, Tracer: NewTracer(&events)}
	first, err := NewOperation(TrsvMv, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	dagBuilds := func() (n int) {
		names, _ := traceEvents(t, &events)
		for _, ev := range names {
			if ev == "inspect.dag_build" {
				n++
			}
		}
		return n
	}
	open := func() *Operation {
		t.Helper()
		op, err := NewOperation(TrsvMv, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if op.inst.Loops != nil {
			t.Fatal("hit open derived the fusion input")
		}
		return op
	}

	saver := open()
	var saved bytes.Buffer
	if err := saver.SaveSchedule(&saved); err != nil {
		t.Fatal(err)
	}
	if saver.inst.Loops != nil {
		t.Fatal("SaveSchedule derived the fusion input")
	}
	loaded, err := NewOperationFromSchedule(TrsvMv, m, bytes.NewReader(saved.Bytes()), Options{Threads: 2})
	if err != nil {
		t.Fatalf("schedule saved by a hit operation does not load: %v", err)
	}
	if !bytes.Equal(loaded.schedule().Bytes(), first.schedule().Bytes()) {
		t.Fatal("schedule saved by a hit operation differs from the inspected one")
	}
	if n := dagBuilds(); n != 1 {
		t.Fatalf("%d inspect.dag_build events after one miss and hits, want 1", n)
	}

	asker := open()
	if r := asker.ReuseRatio(); r != first.ReuseRatio() || r <= 0 {
		t.Fatalf("ReuseRatio on a hit operation = %v, populator's %v", r, first.ReuseRatio())
	}
	if n := dagBuilds(); n != 1 {
		t.Fatalf("%d inspect.dag_build events after ReuseRatio on a hit operation, want 1", n)
	}

	// Corrupt the shared compiled program last: every rung above sequential
	// now faults, and the ladder finishes on the sequential rung without
	// deriving G or F.
	want := runWith(t, &first.execState, x)
	faulty, faultySess := open(), open()
	sess, err := faultySess.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	prog := faulty.runner.Program()
	prog.Iters[len(prog.Iters)-1] = kernels.PackIter(0, 1<<20)
	for name, e := range map[string]*execState{"operation": &faulty.execState, "session": &sess.execState} {
		if err := e.SetInput(x); err != nil {
			t.Fatal(err)
		}
		before := dagBuilds()
		if err := watchdog(t, 10*time.Second, func() error { _, err := e.Run(); return err }); err != nil {
			t.Fatalf("%s: ladder did not absorb the fault: %v", name, err)
		}
		got := e.Output()
		if h := e.Health(); h.Mode != ModeSequential || len(h.Demotions) != 2 {
			t.Fatalf("%s: %+v after a faulting program, want two demotions down to sequential", name, h)
		}
		if n := dagBuilds(); n != before {
			t.Fatalf("%s: the demotion built the fusion input (%d inspect.dag_build events, %d before)", name, n, before)
		}
		if e.inst.Loops != nil {
			t.Fatalf("%s: keeps a fusion input", name)
		}
		if e := sparse.RelErr(got, want); e > 1e-9 {
			t.Fatalf("%s: sequential rung after demotion is off by %g", name, e)
		}
	}
}

// TestHitOpenAllocatesVectorsAndTablesOnly: on pow:8000:6 TRSV-MV a hit open
// plus a session allocate O(n) — six vectors and the runner's tables — and
// nothing that scales with nnz: no DAG, no lower triangle, no CSC, no F.
func TestHitOpenAllocatesVectorsAndTablesOnly(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(8000, 6, 37))
	opts := Options{Threads: 2, Cache: NewScheduleCache(CacheConfig{})}
	open := func() {
		op, err := NewOperation(TrsvMv, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op.NewSession(); err != nil {
			t.Fatal(err)
		}
	}
	open() // the miss
	open() // a first hit, so every per-matrix memo is filled
	const opens = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < opens; i++ {
		open()
	}
	runtime.ReadMemStats(&after)
	n := m.Rows()
	got, bound := int((after.TotalAlloc-before.TotalAlloc)/opens), 12*8*n+64<<10
	t.Logf("n %d, nnz %d: %d B per hit open + session (bound %d; the lower triangle alone is %d)", n, m.NNZ(), got, bound, 16*(m.NNZ()+n)/2)
	if got > bound {
		t.Fatalf("hit open + session allocated %d B, want <= %d (12 words per row + 64 KiB)", got, bound)
	}
}

// TestConcurrentOpensShareMatrixMemos: many goroutines open operations and
// run sessions over one Matrix, cache and server. Each per-matrix form is
// derived exactly once — every operation's kernels point at the same arrays —
// and, under -race, sharing them is free of data races.
func TestConcurrentOpensShareMatrixMemos(t *testing.T) {
	const clients, opensEach = 8, 50
	m := mustReorder(t, PowerLawSPD(1500, 6, 39))
	sc := NewScheduleCache(CacheConfig{})
	opts := Options{Threads: 2, Cache: sc}
	sv := NewServer(ServerConfig{MaxConcurrent: 2, Width: 2, Cache: sc})
	defer sv.Close()

	ref, err := NewOperation(TrsvMv, mustReorder(t, PowerLawSPD(1500, 6, 39)), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(m.Rows())
	want := runWith(t, &ref.execState, x)

	ops := make([][]*Operation, clients)
	err = watchdog(t, 120*time.Second, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < opensEach; k++ {
					op, err := NewOperation(TrsvMv, m, opts)
					if err != nil {
						errs <- err
						return
					}
					ops[c] = append(ops[c], op)
					s, err := op.NewSession()
					if err != nil {
						errs <- err
						return
					}
					if err := s.SetInput(x); err != nil {
						errs <- err
						return
					}
					if _, err := s.RunOn(sv); err != nil {
						errs <- err
						return
					}
					if s.Mode() != ModePacked || sparse.RelErr(s.Output(), want) > 1e-9 {
						errs <- errors.New("session of a concurrently opened operation is wrong or demoted")
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Misses != 1 || st.Hits+st.Waits != clients*opensEach-1 {
		t.Fatalf("want one inspection for %d opens, got %+v", clients*opensEach, st)
	}
	lower, csc := m.forms.Lower(), m.forms.CSC()
	for _, per := range ops {
		for _, op := range per {
			if l := op.inst.Kernels[0].(*kernels.SpTRSVCSR).L; l != lower {
				t.Fatal("an operation solves on a lower triangle of its own")
			}
			if a := op.inst.Kernels[1].(*kernels.SpMVCSC).A; a != csc {
				t.Fatal("an operation multiplies by a CSC form of its own")
			}
			if op.layout != ops[0][0].layout {
				t.Fatal("an operation repacked the cached layout")
			}
		}
	}
	if len(m.keys) != 1 {
		t.Fatalf("%d fingerprints memoized for one option set", len(m.keys))
	}
}

// TestOperationDoesNotPinMatrix: TRSV-MV reads the lower triangle and the CSC
// form, never the CSR its Matrix was built from. An operation that outlives
// its Matrix handle — gs-wide's, every inspect-churn unit's — must let that
// CSR header go: the memoized forms reach the operation, the memo itself does
// not. A symmetric matrix's arrays do live on, as the operation's CSC form.
func TestOperationDoesNotPinMatrix(t *testing.T) {
	for _, sc := range []*ScheduleCache{nil, NewScheduleCache(CacheConfig{})} {
		freed := make(chan struct{})
		var ops []*Operation
		func() {
			m := mustReorder(t, Laplacian2D(30))
			runtime.SetFinalizer(m.csr, func(*sparse.CSR) { close(freed) })
			for i := 0; i < 2; i++ { // with a cache: the miss, then a hit
				op, err := NewOperation(TrsvMv, m, Options{Threads: 2, Cache: sc})
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, op)
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
			t.Fatalf("cache=%v: operations keep their Matrix's CSR alive", sc != nil)
		}
		if _, err := ops[1].Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGaussSeidelOpensThroughSharedPath: the sweep chain opens the way an
// Operation does. Two solvers over one pattern and one cache inspect once (a
// miss, then a hit that the tracer reports as op.open cache=hit), both run
// packed, and their solutions are the bits of a cache-less solver and of the
// one-thread walk of the same BuildGS schedule.
func TestGaussSeidelOpensThroughSharedPath(t *testing.T) {
	const sweeps, runs = 2, 5
	m := mustReorder(t, Laplacian2D(20))
	b := testInput(m.Rows())
	var buf bytes.Buffer
	sc := NewScheduleCache(CacheConfig{})
	opts := GSOptions{Options: Options{Threads: 2, Cache: sc, Tracer: NewTracer(&buf)}, SweepsPerFusion: sweeps}
	var gs []*GaussSeidel
	for i := 0; i < 2; i++ {
		g, err := NewGaussSeidel(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if h := g.state.Health(); h.Mode != ModePacked {
			t.Fatalf("solver %d runs on %s, want packed: %+v", i, h.Mode, h)
		}
		gs = append(gs, g)
	}
	if st := sc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache after two solvers over one pattern: %+v, want one miss then one hit", st)
	}
	_, lines := traceEvents(t, &buf)
	var opens []any
	for _, l := range lines {
		if l["ev"] == "op.open" {
			opens = append(opens, l["cache"])
		}
	}
	if len(opens) != 2 || opens[0] != "miss" || opens[1] != "hit" {
		t.Fatalf("op.open cache outcomes %v, want [miss hit]", opens)
	}

	plain, err := NewGaussSeidel(m, GSOptions{Options: Options{Threads: 2}, SweepsPerFusion: sweeps})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.Solve(b, 0, runs*sweeps)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		x, n, err := g.Solve(b, 0, runs*sweeps)
		if err != nil || n != runs*sweeps {
			t.Fatalf("solver %d: %d sweeps, err %v", i, n, err)
		}
		if !bitsSame(x, want) {
			t.Fatalf("solver %d over the cached schedule differs from the cache-less solver", i)
		}
	}
	walk, err := combos.BuildGS(m.csr, sweeps)
	if err != nil {
		t.Fatal(err)
	}
	copy(walk.Input, b)
	for r := 0; r < runs; r++ {
		if _, err := exec.RunScheduleSequential(context.Background(), walk.Kernels, gs[0].state.schedule()); err != nil {
			t.Fatal(err)
		}
		copy(walk.GSX0, walk.Output)
	}
	if !bitsSame(walk.GSX0, want) {
		t.Fatal("solver differs from the one-thread walk of its schedule")
	}
}

// TestEveryOpenTracesOneDAGBuildSchema: an Operation, a FusedCG and a
// GaussSeidel report building their fusion input with one event shape.
func TestEveryOpenTracesOneDAGBuildSchema(t *testing.T) {
	var buf bytes.Buffer
	m := Laplacian2D(12)
	opts := Options{Threads: 2, Tracer: NewTracer(&buf)}
	if _, err := NewOperation(TrsvMv, m, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFusedCG(m, FusedCGOptions{Options: opts, Precondition: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGaussSeidel(m, GSOptions{Options: opts}); err != nil {
		t.Fatal(err)
	}
	_, lines := traceEvents(t, &buf)
	var from []any
	for _, l := range lines {
		if l["ev"] != "inspect.dag_build" {
			continue
		}
		from = append(from, l["combo"])
		for _, f := range []string{"op", "combo", "n", "dag_edges", "dur_ns"} {
			if _, ok := l[f]; !ok {
				t.Fatalf("inspect.dag_build missing %q: %v", f, l)
			}
		}
		if e, _ := l["dag_edges"].(float64); e <= 0 {
			t.Fatalf("inspect.dag_build without edges: %v", l)
		}
	}
	if len(from) != 3 {
		t.Fatalf("inspect.dag_build from %v, want one per open", from)
	}
}

// TestFingerprintKeysPinned: the cache keys of every combination and of the
// CG/PCG chains are the bytes cache.Fingerprint produced before the option
// resolution was shared, so disk tiers and saved schedules keep resolving.
// Each is pinned at two thread counts.
func TestFingerprintKeysPinned(t *testing.T) {
	m := Laplacian2D(9)
	two, three := Options{Threads: 2}, Options{Threads: 3}
	for _, tc := range []struct {
		c          Combination
		two, three string
	}{
		{TrsvTrsv, "f22c8bf22bf537e1", "f358a712a3e23a62"},
		{DscalIlu0, "5d7e919eb4782327", "6c50710fcf36a064"},
		{TrsvMv, "4be1ec13f0335bec", "2a9fc5de34e00229"},
		{Ic0Trsv, "9b7c4532cfc4798e", "520535c3f15ed72c"},
		{Ilu0Trsv, "d1b82a13094c0ffc", "e713f78df7fb9959"},
		{DscalIc0, "c592fa700a0cec9c", "632056739ca3d211"},
		{MvMv, "85084aaaf9b1c10b", "601fab308d7225b3"},
	} {
		for o, want := range map[Options]string{two: tc.two, three: tc.three} {
			op, err := NewOperation(tc.c, m, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := op.Fingerprint()[:16]; got != want {
				t.Errorf("%s %+v: key %s, pinned %s", tc.c, o, got, want)
			}
		}
	}
	for _, tc := range []struct {
		opts FusedCGOptions
		want string
	}{
		{FusedCGOptions{Options: two}, "551248ab2af496a5"},
		{FusedCGOptions{Options: three}, "9822bcaca00d0e58"},
		{FusedCGOptions{Options: two, Precondition: true}, "44870a9b13b0d5ec"},
		{FusedCGOptions{Options: three, Precondition: true}, "f7dfb29c93dd1aa1"},
	} {
		f, err := NewFusedCG(m, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Fingerprint()[:16]; got != tc.want {
			t.Errorf("%+v: key %s, pinned %s", tc.opts, got, tc.want)
		}
	}
}
