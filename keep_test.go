package sparsefusion

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// What an operation keeps after it opens is what it runs: the compiled
// program, its layout and runner, its vectors and matrix forms. The tests here
// pin what it can still produce from that alone.

// TestSaveSchedulePinned: the bytes SaveSchedule writes for an uncached
// operation and for a cache hit are pinned by SHA-256, so the saved form of a
// schedule never depends on which of its forms the operation kept.
func TestSaveSchedulePinned(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	for _, tc := range []struct {
		c    Combination
		want string
	}{
		{TrsvMv, "741e63366bcb791a"},
		{TrsvTrsv, "2d51f417660284f4"},
		{DscalIc0, "d1859b3c96abdd68"},
	} {
		sc := NewScheduleCache(CacheConfig{})
		for _, side := range []struct {
			name string
			opts Options
		}{
			{"uncached", Options{Threads: 4}},
			{"miss", Options{Threads: 4, Cache: sc}},
			{"hit", Options{Threads: 4, Cache: sc}},
		} {
			op, err := NewOperation(tc.c, m, side.opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := op.SaveSchedule(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:8]); got != tc.want {
				t.Errorf("%s %s: SaveSchedule sha256 %s, pinned %s", tc.c, side.name, got, tc.want)
			}
		}
		if st := sc.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%s: cache %+v, want one miss then one hit", tc.c, st)
		}
	}
}

// inspectionForms lists what an operation reaches of the inspector's input and
// output forms: kernel DAGs, fusion inputs and tree schedules, found by
// walking every pointer, slice, map, interface and struct field from root.
// Closures are opaque to the walk.
func inspectionForms(root any) []string {
	kept := map[reflect.Type]string{
		reflect.TypeOf(&dag.Graph{}):     "kernel DAG",
		reflect.TypeOf(&core.Loops{}):    "fusion input",
		reflect.TypeOf(&core.Schedule{}): "tree schedule",
	}
	var found []string
	// A struct and its first field share an address, so a pointer is seen
	// by address and type.
	type ref struct {
		addr uintptr
		t    reflect.Type
	}
	seen := map[ref]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			r := ref{v.Pointer(), v.Type()}
			if v.IsNil() || seen[r] {
				return
			}
			seen[r] = true
			if what, ok := kept[v.Type()]; ok {
				found = append(found, what)
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return found
}

// collected runs the collector until every channel has been closed by its
// finalizer, or gives up.
func collected(freed ...chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		all := true
		for _, c := range freed {
			select {
			case <-c:
			default:
				all = false
			}
		}
		if all {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestOperationKeepsNoFusionInput: an uncached operation reaches no kernel
// DAG, fusion input or tree schedule once it is open, and the F matrix and
// kernel DAGs it builds go with the next collection. It still runs, saves the
// schedule it was inspected with and opens a session; after an executor fault
// it demotes to the kernels in program order, returns the bits it returned
// before and still keeps no tree schedule.
func TestOperationKeepsNoFusionInput(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(3000, 6, 41))
	x := testInput(m.Rows())
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if forms := inspectionForms(op); len(forms) > 0 {
		t.Fatalf("an open operation keeps %v", forms)
	}
	fFreed, gFreed := make(chan struct{}), make(chan struct{})
	func() {
		loops, _ := op.fusion() // what open built, built again
		runtime.SetFinalizer(loops.F[0], func(*sparse.CSR) { close(fFreed) })
		runtime.SetFinalizer(loops.G[1], func(*dag.Graph) { close(gFreed) })
	}()
	if !collected(fFreed, gFreed) {
		t.Fatal("the operation keeps the F matrix or a kernel DAG it built")
	}

	want := runWith(t, &op.execState, x)
	var saved bytes.Buffer
	if err := op.SaveSchedule(&saved); err != nil {
		t.Fatal(err)
	}
	ref, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := ref.SaveSchedule(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), fresh.Bytes()) {
		t.Fatal("the schedule saved from the program differs from a fresh inspection's")
	}
	sess, err := op.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if got := runWith(t, &sess.execState, x); !bitsSame(got, want) {
		t.Fatal("a session of the operation computes different bits")
	}

	prog := op.runner.Program()
	prog.Iters[len(prog.Iters)-1] = kernels.PackIter(0, 1<<20)
	var got []float64
	if err := watchdog(t, 10*time.Second, func() error {
		if err := op.SetInput(x); err != nil {
			return err
		}
		_, err := op.Run()
		got = op.Output()
		return err
	}); err != nil {
		t.Fatalf("ladder did not absorb the fault: %v", err)
	}
	if h := op.Health(); h.Mode != ModeSequential || len(h.Demotions) != 2 {
		t.Fatalf("%+v after a faulting program, want two demotions down to sequential", h)
	}
	if !bitsSame(got, want) {
		t.Fatal("the demoted operation computes different bits")
	}
	if forms := inspectionForms(op); len(forms) > 0 {
		t.Fatalf("the demoted operation keeps %v", forms)
	}
}

// TestSessionsDemoteConcurrently: eight sessions of one operation whose
// shared program faults demote at once, each on its own ladder, and every one
// returns the operation's bits and keeps no kernel DAG, fusion input or tree
// schedule.
func TestSessionsDemoteConcurrently(t *testing.T) {
	const sessions = 8
	m := mustReorder(t, Laplacian2D(30))
	x := testInput(m.Rows())
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := runWith(t, &op.execState, x)
	ss := make([]*Session, sessions)
	for i := range ss {
		if ss[i], err = op.NewSession(); err != nil {
			t.Fatal(err)
		}
		if err := ss[i].SetInput(x); err != nil {
			t.Fatal(err)
		}
	}
	op.prog.Iters[len(op.prog.Iters)-1] = kernels.PackIter(0, 1<<20)
	outs := make([][]float64, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run()
			outs[i] = s.Output()
		}()
	}
	if err := watchdog(t, 30*time.Second, func() error { wg.Wait(); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if h := s.Health(); h.Mode != ModeSequential || len(h.Demotions) != 2 {
			t.Fatalf("session %d: %+v, want two demotions down to sequential", i, h)
		}
		if !bitsSame(outs[i], want) {
			t.Fatalf("session %d: bits differ from the operation's", i)
		}
		if forms := inspectionForms(s); len(forms) > 0 {
			t.Fatalf("session %d: the demoted session keeps %v", i, forms)
		}
	}
}

// TestTimedPathsBuildNothing: after the one miss that inspects, nothing a
// caller times — Run, RunContext, RunOn, Session.Run, an open that hits the
// cache, ReuseRatio — builds a kernel DAG or F (no inspect.dag_build event),
// and none of them leaves a tree schedule behind.
func TestTimedPathsBuildNothing(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(8000, 6, 43))
	var events bytes.Buffer
	opts := Options{Threads: 2, Cache: NewScheduleCache(CacheConfig{}), Tracer: NewTracer(&events)}
	miss, err := NewOperation(TrsvTrsv, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2})
	defer sv.Close()
	for i := 0; i < 3; i++ {
		hit, err := NewOperation(TrsvTrsv, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r := hit.ReuseRatio(); r != miss.ReuseRatio() {
			t.Fatalf("hit ReuseRatio %v, the miss's %v", r, miss.ReuseRatio())
		}
		sess, err := hit.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []func() (Report, error){
			miss.Run, hit.Run, sess.Run,
			func() (Report, error) { return hit.RunContext(context.Background()) },
			func() (Report, error) { return sess.RunOn(sv) },
		} {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range []any{miss, hit, sess} {
			if forms := inspectionForms(e); len(forms) > 0 {
				t.Fatalf("open %d: %T keeps %v after running", i, e, forms)
			}
		}
	}
	names, _ := traceEvents(t, &events)
	n := 0
	for _, ev := range names {
		if ev == "inspect.dag_build" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d inspect.dag_build events, want the miss's one", n)
	}
}

// TestSolversKeepNoFusionInput: an open FusedCG or GaussSeidel reaches no
// kernel DAG, fusion input or tree schedule, opened uncached or on a cache
// miss or hit. After its program faults it demotes to the kernels in program
// order, solves to the bits it solved to before and still keeps none of them.
func TestSolversKeepNoFusionInput(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	b := testInput(m.Rows())
	type solver struct {
		name  string
		open  func(Options) (any, *execState, error)
		solve func(any) ([]float64, error)
	}
	for _, sv := range []solver{
		{"pcg",
			func(o Options) (any, *execState, error) {
				f, err := NewFusedCG(m, FusedCGOptions{Options: o, Precondition: true, Tol: 1e-9})
				if err != nil {
					return nil, nil, err
				}
				return f, &f.execState, nil
			},
			func(s any) ([]float64, error) { x, _, _, err := s.(*FusedCG).Solve(b); return x, err }},
		{"cg",
			func(o Options) (any, *execState, error) {
				f, err := NewFusedCG(m, FusedCGOptions{Options: o, Tol: 1e-9})
				if err != nil {
					return nil, nil, err
				}
				return f, &f.execState, nil
			},
			func(s any) ([]float64, error) { x, _, _, err := s.(*FusedCG).Solve(b); return x, err }},
		{"gauss-seidel",
			func(o Options) (any, *execState, error) {
				g, err := NewGaussSeidel(m, GSOptions{Options: o, SweepsPerFusion: 2})
				if err != nil {
					return nil, nil, err
				}
				return g, &g.state, nil
			},
			func(s any) ([]float64, error) { x, _, err := s.(*GaussSeidel).Solve(b, 1e-6, 40); return x, err }},
	} {
		sc := NewScheduleCache(CacheConfig{})
		var want []float64
		for _, side := range []struct {
			name string
			opts Options
		}{
			{"uncached", Options{Threads: 2}},
			{"miss", Options{Threads: 2, Cache: sc}},
			{"hit", Options{Threads: 2, Cache: sc}},
		} {
			s, _, err := sv.open(side.opts)
			if err != nil {
				t.Fatal(err)
			}
			if forms := inspectionForms(s); len(forms) > 0 {
				t.Fatalf("%s %s: an open solver keeps %v", sv.name, side.name, forms)
			}
			x, err := sv.solve(s)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = x
			} else if !bitsSame(x, want) {
				t.Fatalf("%s %s: the solution differs from the uncached solver's", sv.name, side.name)
			}
			if forms := inspectionForms(s); len(forms) > 0 {
				t.Fatalf("%s %s: a solver keeps %v after solving", sv.name, side.name, forms)
			}
		}

		s, e, err := sv.open(Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		corruptLoop0(e.prog)
		var x []float64
		if err := watchdog(t, 30*time.Second, func() error {
			var err error
			x, err = sv.solve(s)
			return err
		}); err != nil {
			t.Fatalf("%s: ladder did not absorb the fault: %v", sv.name, err)
		}
		if h := e.Health(); h.Mode != ModeSequential || len(h.Demotions) != 2 {
			t.Fatalf("%s: %+v after a faulting program, want two demotions down to sequential", sv.name, h)
		}
		if !bitsSame(x, want) {
			t.Fatalf("%s: the demoted solver computes different bits", sv.name)
		}
		if forms := inspectionForms(s); len(forms) > 0 {
			t.Fatalf("%s: the demoted solver keeps %v", sv.name, forms)
		}
	}
}

// TestCacheEntriesKeepNoTreeSchedule: a published cache entry with a program
// keeps no tree schedule, whether the disk tier is off or saved it, and an
// operation that hits it still saves the schedule the miss inspected.
func TestCacheEntriesKeepNoTreeSchedule(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(3000, 6, 41))
	for _, dir := range []string{"", t.TempDir()} {
		sc := NewScheduleCache(CacheConfig{Dir: dir})
		for _, c := range []Combination{TrsvTrsv, TrsvMv, DscalIc0} {
			var saved [2]bytes.Buffer
			for i := range saved {
				op, err := NewOperation(c, m, Options{Threads: 2, Cache: sc})
				if err != nil {
					t.Fatal(err)
				}
				if err := op.SaveSchedule(&saved[i]); err != nil {
					t.Fatal(err)
				}
				e, ok := sc.c.Get(op.fp)
				if !ok || e.Program == nil {
					t.Fatalf("%s: no published entry with a program", c)
				}
				if forms := inspectionForms(e); len(forms) > 0 {
					t.Fatalf("%s dir=%q: a published entry keeps %v", c, dir, forms)
				}
			}
			if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
				t.Fatalf("%s: the hit saves a different schedule than the miss", c)
			}
		}
		if st := sc.Stats(); st.Misses != 3 {
			t.Fatalf("dir=%q: %+v, want one miss per combination", dir, st)
		}
	}
}

// runnerSliceBytes is what the runner's own slices hold: the backing arrays
// of its slice fields, not what their elements point to (kernels, streams,
// spill slots).
func runnerSliceBytes(r *exec.Runner) int {
	v := reflect.ValueOf(r).Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestRunnerKeepsNoDispatchTable: past its bodies — per loop and per loop
// pair, 64 B per loop pair of allowance — an operation's runner keeps at most
// 4 B per dispatch unit: the program holds each unit's loops, range and
// stream cursors.
func TestRunnerKeepsNoDispatchTable(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(3000, 6, 41))
	check := func(name string, e *execState) {
		t.Helper()
		units := 0
		e.runner.Units(func(int, int, int, bool) { units++ })
		k := e.prog.NumLoops
		if got, max := runnerSliceBytes(e.runner), 4*units+64*k*k; got > max {
			t.Fatalf("%s: the runner's slices hold %d B for %d dispatch units over %d loops, want <= %d", name, got, units, k, max)
		}
	}
	for _, c := range []Combination{TrsvTrsv, DscalIlu0, TrsvMv, Ic0Trsv, Ilu0Trsv, DscalIc0, MvMv} {
		op, err := NewOperation(c, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(c.String(), &op.execState)
	}
	f, err := NewFusedCG(mustReorder(t, Laplacian2D(40)), FusedCGOptions{Options: Options{Threads: 2}, Precondition: true})
	if err != nil {
		t.Fatal(err)
	}
	check("pcg", &f.execState)
}

// TestDscalReplaysWithoutFactorSnapshot: in the DSCAL chains the scaling
// rewrites the factor's input on every run, so the factor keeps no snapshot
// of its own, and two consecutive runs return the same bits.
func TestDscalReplaysWithoutFactorSnapshot(t *testing.T) {
	m := mustReorder(t, PowerLawSPD(3000, 6, 41))
	for _, c := range []Combination{DscalIc0, DscalIlu0} {
		op, err := NewOperation(c, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		switch k := op.inst.Kernels[1].(type) {
		case *kernels.SpIC0CSC:
			if k.A0 != nil {
				t.Fatalf("%s: the factor keeps a %d-value snapshot", c, len(k.A0))
			}
		case *kernels.SpILU0CSR:
			if k.A0 != nil {
				t.Fatalf("%s: the factor keeps a %d-value snapshot", c, len(k.A0))
			}
		default:
			t.Fatalf("%s: second kernel %T is not a factorization", c, k)
		}
		var outs [2][]float64
		for i := range outs {
			if _, err := op.Run(); err != nil {
				t.Fatal(err)
			}
			outs[i] = op.Output()
		}
		if !bitsSame(outs[0], outs[1]) {
			t.Fatalf("%s: a second run computes different bits", c)
		}
	}
}

// corruptLoop0 sends the program's last loop-0 iteration (a sparse kernel's;
// the vector kernels' blocks clamp to their vectors) out of range, so every
// rung that reads the program faults in its last s-partition.
func corruptLoop0(p *core.Program) {
	for i := len(p.Iters) - 1; ; i-- {
		if loop, _ := kernels.UnpackIter(p.Iters[i]); loop == 0 {
			p.Iters[i] = kernels.PackIter(0, 1<<20)
			return
		}
	}
}

// TestDemotionBuildsNothing: an Operation, a Session of it, a PCG FusedCG and
// a GaussSeidel whose programs fault demote twice, down to the kernels in
// program order, without building a kernel DAG or F (no inspect.dag_build
// event after they open), and keep none of the inspector's forms.
func TestDemotionBuildsNothing(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	b := testInput(m.Rows())
	var events bytes.Buffer
	opts := Options{Threads: 2, Tracer: NewTracer(&events)}
	dagBuilds := func() (n int) {
		names, _ := traceEvents(t, &events)
		for _, ev := range names {
			if ev == "inspect.dag_build" {
				n++
			}
		}
		return n
	}
	op, err := NewOperation(TrsvTrsv, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := op.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cg, err := NewFusedCG(m, FusedCGOptions{Options: opts, Precondition: true, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGaussSeidel(m, GSOptions{Options: opts, SweepsPerFusion: 2})
	if err != nil {
		t.Fatal(err)
	}
	opened := dagBuilds()
	corruptLoop0(op.prog) // shared with the session
	corruptLoop0(cg.prog)
	corruptLoop0(gs.state.prog)
	for _, tc := range []struct {
		name   string
		holder any
		e      *execState
		run    func() error
	}{
		{"operation", op, &op.execState, func() error { _, err := op.Run(); return err }},
		{"session", sess, &sess.execState, func() error { _, err := sess.Run(); return err }},
		{"pcg", cg, &cg.execState, func() error { _, _, _, err := cg.Solve(b); return err }},
		{"gauss-seidel", gs, &gs.state, func() error { _, _, err := gs.Solve(b, 1e-6, 10); return err }},
	} {
		if err := watchdog(t, 30*time.Second, tc.run); err != nil {
			t.Fatalf("%s: ladder did not absorb the fault: %v", tc.name, err)
		}
		if h := tc.e.Health(); h.Mode != ModeSequential || len(h.Demotions) != 2 {
			t.Fatalf("%s: %+v after a faulting program, want two demotions down to sequential", tc.name, h)
		}
		if forms := inspectionForms(tc.holder); len(forms) > 0 {
			t.Fatalf("%s: the demoted state keeps %v", tc.name, forms)
		}
	}
	if n := dagBuilds(); n != opened {
		t.Fatalf("%d inspect.dag_build events after the demotions, %d after the opens", n, opened)
	}
}

// TestOpenKeepsOneCopyPerMatrix: an open keeps one copy of each operand. A
// TRSV-MV operation over a symmetric matrix multiplies by the Matrix's own
// arrays, on a miss, on a hit and in a session, rather than by a CSC copy of
// them; a TRSV-TRSV layout over a reordered grid holds one stream, which both
// solves read. Every output is the bits of a cache-less reference.
func TestOpenKeepsOneCopyPerMatrix(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	x := testInput(m.Rows())
	for _, c := range []Combination{TrsvMv, TrsvTrsv} {
		ref, err := NewOperation(c, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := runWith(t, &ref.execState, x)
		sc := NewScheduleCache(CacheConfig{})
		for _, side := range []string{"miss", "hit"} {
			op, err := NewOperation(c, m, Options{Threads: 2, Cache: sc})
			if err != nil {
				t.Fatal(err)
			}
			s, err := op.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			for who, e := range map[string]*execState{"operation": &op.execState, "session": &s.execState} {
				if e.layout == nil {
					t.Fatalf("%s %s %s: no packed layout", c, side, who)
				}
				switch c {
				case TrsvMv:
					a := e.inst.Kernels[1].(*kernels.SpMVCSC).A
					if &a.P[0] != &m.csr.P[0] || &a.I[0] != &m.csr.I[0] || &a.X[0] != &m.csr.X[0] {
						t.Fatalf("%s %s %s: SpMV-CSC multiplies by a copy of the Matrix's arrays", c, side, who)
					}
				case TrsvTrsv:
					if e.layout.Streams[0] != e.layout.Streams[1] {
						t.Fatalf("%s %s %s: the two solves read two streams", c, side, who)
					}
				}
				got := runWith(t, e, x)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s %s: output %d is %v, the cache-less reference %v", c, side, who, i, got[i], want[i])
					}
				}
			}
		}
		if st := sc.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%s: cache %+v, want one miss then one hit", c, st)
		}
	}
}
