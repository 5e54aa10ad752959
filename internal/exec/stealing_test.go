package exec

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The stealing contract under test: enabling Config.Steal must never change
// the numbers. A w-partition executes whole on one goroutine, so for gather
// kernels — whose results do not depend on cross-w-partition ordering — the
// stolen executor's output is bit-identical to the static one at every worker
// count, including pools narrower than the schedule. (Scatter kernels
// accumulate atomically; their FP ordering varies across ANY parallel run, so
// bit-level checks use the gather combos: trsv-trsv and dscal-ilu0.)

var gatherCombos = map[string]comboFn{
	"trsv-trsv":  fusedTrsvTrsv,
	"dscal-ilu0": fusedDscalIlu0,
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

func TestStealingMatchesStaticBitIdentical(t *testing.T) {
	for name, mk := range gatherCombos {
		loops, ks, snap := mk(300, 7)
		sched, err := core.ICO(loops, icoParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		static, err := CompileFused(ks, sched)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := static.Run(threads); err != nil {
			t.Fatalf("%s: static run: %v", name, err)
		}
		want := snap()
		for workers := 1; workers <= 8; workers++ {
			r, err := CompileFused(ks, sched)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r.Configure(Config{Steal: true})
			for rep := 0; rep < 3; rep++ { // replay: steals differ per run, results must not
				if _, err := r.Run(workers); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if got := snap(); !bitsEqual(got, want) {
					t.Fatalf("%s workers=%d rep %d: stealing changed the bits", name, workers, rep)
				}
			}
		}
	}
}

func TestStealingPackedMatchesStaticBitIdentical(t *testing.T) {
	loops, ks, snap := fusedTrsvTrsv(300, 11)
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	static, _, err := CompileFusedPacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := static.Run(threads); err != nil {
		t.Fatal(err)
	}
	want := snap()
	for workers := 1; workers <= 8; workers++ {
		r, _, err := CompileFusedPacked(ks, sched)
		if err != nil {
			t.Fatal(err)
		}
		r.Configure(Config{Steal: true})
		if _, err := r.Run(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap(); !bitsEqual(got, want) {
			t.Fatalf("workers=%d: packed stealing changed the bits", workers)
		}
	}
}

// TestStealingNarrowPool proves the stealing path runs a schedule on a shared
// pool narrower than the program's MaxWidth — the static path must keep
// refusing that.
func TestStealingNarrowPool(t *testing.T) {
	loops, ks, snap := fusedTrsvTrsv(300, 7)
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileFused(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	if r.Program().MaxWidth < 3 {
		t.Skipf("fixture too narrow (MaxWidth=%d) to exercise a narrow pool", r.Program().MaxWidth)
	}
	if _, err := r.Run(threads); err != nil {
		t.Fatal(err)
	}
	want := snap()
	pl := NewPool(2)
	defer pl.Close()
	if _, err := r.RunOn(pl, 2); err == nil {
		t.Fatal("static runner accepted a pool narrower than the program")
	}
	r.Configure(Config{Steal: true})
	if _, err := r.RunOn(pl, 2); err != nil {
		t.Fatalf("steal-enabled runner refused a narrow pool: %v", err)
	}
	if got := snap(); !bitsEqual(got, want) {
		t.Fatal("narrow-pool stealing changed the bits")
	}
}

// stealProbe is a minimal kernel for orchestrating stealing deterministically:
// each iteration runs a caller-provided body.
type stealProbe struct {
	n    int
	body func(i int)
}

func (k *stealProbe) Name() string             { return "steal-probe" }
func (k *stealProbe) Iterations() int          { return k.n }
func (k *stealProbe) DAG() *dag.Graph          { return &dag.Graph{N: k.n, P: make([]int, k.n+1)} }
func (k *stealProbe) Prepare()                 {}
func (k *stealProbe) Run(i int)                { k.body(i) }
func (k *stealProbe) Footprint() []kernels.Var { return nil }
func (k *stealProbe) Flops() int64             { return 0 }

// stealProbeRunner compiles one s-partition of three w-partitions with
// iteration counts 3/3/1 over a probe kernel. The 2-slot LPT seed is then
// slot 0 ← [w0, w2], slot 1 ← [w1] (weights 3,3,1; ties break to the lower
// slot), so forcing slot 0 to be slow in w0 makes slot 1 steal w2.
func stealProbeRunner(t *testing.T, body func(i int)) *Runner {
	t.Helper()
	b, err := core.NewProgramBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	b.StartS()
	idx := 0
	for _, n := range []int{3, 3, 1} {
		if err := b.StartW(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if err := b.Add(0, idx); err != nil {
				t.Fatal(err)
			}
			idx++
		}
	}
	prog := b.Finish()
	r := NewRunner([]kernels.Kernel{&stealProbe{n: idx, body: body}}, prog)
	r.Configure(Config{Steal: true})
	asn := r.stealFor(2).asn
	if q0, q1 := asn.Queue(0, 0), asn.Queue(0, 1); len(q0) != 2 || q0[0] != 0 || q0[1] != 2 || len(q1) != 1 || q1[0] != 1 {
		t.Fatalf("unexpected seed: slot0=%v slot1=%v (want [0 2], [1])", q0, q1)
	}
	return r
}

// TestStealingFaultAttribution panics inside a w-partition that was STOLEN
// and checks the typed error names the executing slot and the true global
// w-partition — the static slot→w0+w map would misattribute both.
func TestStealingFaultAttribution(t *testing.T) {
	// Iterations 0-2 are w0 (slot 0's first unit), 3-5 are w1 (slot 1's),
	// iteration 6 is w2 (seeded at slot 0's tail). w0's first iteration spins
	// until w2 ran; w2 panics after raising the flag. Slot 1 finishes w1 fast,
	// steals w2 from slot 0's tail — slot 0 is stuck inside w0 — and faults.
	var w2Ran atomic.Bool
	body := func(i int) {
		switch {
		case i == 0:
			for !w2Ran.Load() {
				time.Sleep(time.Microsecond)
			}
		case i == 6:
			w2Ran.Store(true)
			panic("stolen fault")
		}
	}
	r := stealProbeRunner(t, body)
	err := watchdog(t, 10*time.Second, func() error {
		_, err := r.Run(2)
		return err
	})
	if err == nil {
		t.Fatal("panicking stolen w-partition ran without error")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error %T is not *ExecError: %v", err, err)
	}
	if ee.Worker != 1 {
		t.Fatalf("fault attributed to slot %d, want the stealing slot 1", ee.Worker)
	}
	if ee.WPartition != 2 {
		t.Fatalf("fault attributed to w-partition %d, want the stolen w-partition 2", ee.WPartition)
	}
	if ee.SPartition != 0 {
		t.Fatalf("fault attributed to s-partition %d, want 0", ee.SPartition)
	}
}

// TestStealingRecorderCountsSteals forces one steal (same choreography as the
// fault test, minus the panic) and checks it lands in Breakdown.
func TestStealingRecorderCountsSteals(t *testing.T) {
	var w2Ran atomic.Bool
	body := func(i int) {
		switch {
		case i == 0:
			for !w2Ran.Load() {
				time.Sleep(time.Microsecond)
			}
		case i == 6:
			w2Ran.Store(true)
		}
	}
	r := stealProbeRunner(t, body)
	rec := NewRecorder(64, 2)
	r.SetRecorder(rec)
	rec.Enable()
	err := watchdog(t, 10*time.Second, func() error {
		_, err := r.Run(2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bd := rec.Breakdown()
	if bd.Steals < 1 {
		t.Fatalf("Breakdown.Steals = %d, want >= 1 (w2 was stolen)", bd.Steals)
	}
	if len(bd.Partitions) != 1 || bd.Partitions[0].Steals < 1 {
		t.Fatalf("partition profile did not attribute the steal: %+v", bd.Partitions)
	}
	if steals, _ := r.StealStats(); steals < 1 {
		t.Fatalf("StealStats steals = %d, want >= 1", steals)
	}
}

// TestStealStateReseed drives finishRun directly: persistent heavy stealing
// must rebuild the assignment from the measured loads after ReseedAfter runs,
// and one calm run must reset the streak.
func TestStealStateReseed(t *testing.T) {
	p := buildStealTestProgram(t, []int{4, 4, 4, 4})
	st := newStealState(p, 2)
	threshold := int64(p.NumWPartitions() / 8)
	if threshold < 1 {
		threshold = 1
	}
	// Measured loads invert the iteration-count proxy.
	for w := range st.wLoad {
		st.wLoad[w] = int64(100 * (w + 1))
	}
	const after = 3
	for run := 0; run < after-1; run++ {
		st.runSteals = threshold
		if st.finishRun(p, after) {
			t.Fatalf("re-seeded after %d heavy runs, want %d", run+1, after)
		}
	}
	// A calm run resets the streak.
	st.runSteals = 0
	if st.finishRun(p, after) {
		t.Fatal("re-seeded on a calm run")
	}
	for run := 0; run < after-1; run++ {
		st.runSteals = threshold
		if st.finishRun(p, after) {
			t.Fatal("streak did not reset after the calm run")
		}
	}
	st.runSteals = threshold
	if !st.finishRun(p, after) {
		t.Fatalf("no re-seed after %d consecutive heavy runs", after)
	}
	if st.reseeds != 1 {
		t.Fatalf("reseeds = %d, want 1", st.reseeds)
	}
	want := core.AssignProgram(p, 2, func(w int) int64 { return int64(100 * (w + 1)) })
	for q := 0; q < 2; q++ {
		got, exp := st.asn.Queue(0, q), want.Queue(0, q)
		if len(got) != len(exp) {
			t.Fatalf("slot %d: re-seeded queue %v, want load-weighted %v", q, got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("slot %d: re-seeded queue %v, want load-weighted %v", q, got, exp)
			}
		}
	}
}

// buildStealTestProgram compiles a one-s-partition program whose w-partitions
// have the given iteration counts.
func buildStealTestProgram(t *testing.T, wIters []int) *core.Program {
	t.Helper()
	b, err := core.NewProgramBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	b.StartS()
	idx := 0
	for _, n := range wIters {
		if err := b.StartW(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if err := b.Add(0, idx); err != nil {
				t.Fatal(err)
			}
			idx++
		}
	}
	return b.Finish()
}

// TestStealingRaceCombos replays the gather combos through the stealing path
// at several widths; meaningful under -race (make race covers this package).
func TestStealingRaceCombos(t *testing.T) {
	for name, mk := range gatherCombos {
		loops, ks, snap := mk(200, 3)
		sched, err := core.ICO(loops, icoParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := seqResult(ks, snap)
		for _, workers := range []int{2, 4, 8} {
			r, err := CompileFused(ks, sched)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r.Configure(Config{Steal: true})
			for rep := 0; rep < 5; rep++ {
				if _, err := r.Run(workers); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
			}
			if got := snap(); sparse.RelErr(got, want) > 1e-9 {
				t.Fatalf("%s workers=%d: diverged from sequential", name, workers)
			}
		}
	}
}
