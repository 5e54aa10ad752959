package exec

import (
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/relayout"
)

// compileFixture builds a compiled runner over the trsv-mv combination.
func compileFixture(t *testing.T, n int) (*Runner, *core.Schedule) {
	t.Helper()
	loops, ks, _ := fusedTrsvMv(n, 11)
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	return r, sched
}

func TestRecorderDisabledRecordsNothing(t *testing.T) {
	r, sched := compileFixture(t, 300)
	rec := NewRecorder(1024, sched.MaxWidth())
	r.SetRecorder(rec)
	if _, err := r.Run(threads); err != nil {
		t.Fatal(err)
	}
	if rec.Runs() != 0 || len(rec.Spans()) != 0 {
		t.Fatalf("disabled recorder captured runs=%d spans=%d", rec.Runs(), len(rec.Spans()))
	}
}

func TestRecorderCapturesCompiledRun(t *testing.T) {
	r, sched := compileFixture(t, 300)
	rec := NewRecorder(4096, sched.MaxWidth())
	r.SetRecorder(rec)
	rec.Enable()
	if _, err := r.Run(threads); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	// One span per w-partition per barrier: the legacy tracer walking the
	// same schedule defines the expected population.
	wantSpans := 0
	for _, sp := range sched.S {
		wantSpans += len(sp)
	}
	if len(spans) != wantSpans {
		t.Fatalf("spans = %d, want %d (one per w-partition)", len(spans), wantSpans)
	}
	if rec.Runs() != 1 || rec.Breakdown().DroppedSpans != 0 {
		t.Fatalf("runs=%d dropped=%d", rec.Runs(), rec.Breakdown().DroppedSpans)
	}
	// Spans must label s-partitions in schedule order with true iteration
	// counts, and starts must never decrease across barriers.
	var lastS int
	var lastStart time.Duration
	iters := 0
	for _, s := range spans {
		if s.SPartition < lastS {
			t.Fatalf("span s-partitions out of order: %d after %d", s.SPartition, lastS)
		}
		if s.SPartition > lastS {
			lastS, lastStart = s.SPartition, s.Start
		}
		if s.Start < lastStart {
			t.Fatalf("s%d starts at %v before previous barrier at %v", s.SPartition, s.Start, lastStart)
		}
		iters += s.Iters
	}
	if iters != sched.NumIterations() {
		t.Fatalf("span iterations sum to %d, want %d", iters, sched.NumIterations())
	}

	b := rec.Breakdown()
	if b.Runs != 1 || b.Barriers != int64(sched.NumSPartitions()) {
		t.Fatalf("breakdown runs=%d barriers=%d, want 1/%d", b.Runs, b.Barriers, sched.NumSPartitions())
	}
	if len(b.Partitions) != sched.NumSPartitions() {
		t.Fatalf("breakdown partitions = %d, want %d", len(b.Partitions), sched.NumSPartitions())
	}
	var partBusy, workerBusy int64
	for _, p := range b.Partitions {
		partBusy += p.BusyNs
		if p.WaitNs < 0 || p.MaxNs <= 0 {
			t.Fatalf("partition %d: wait=%d max=%d", p.S, p.WaitNs, p.MaxNs)
		}
	}
	for _, w := range b.WorkerBusyNs {
		workerBusy += w
	}
	if partBusy != workerBusy || b.TotalBusyNs != workerBusy {
		t.Fatalf("busy time inconsistent: partitions=%d workers=%d total=%d", partBusy, workerBusy, b.TotalBusyNs)
	}
	if im := b.Imbalance(); im < 0 || im > 1 {
		t.Fatalf("imbalance = %v, want within [0,1]", im)
	}
}

func TestRecorderCapturesPackedRun(t *testing.T) {
	r, sched := compileFixture(t, 300)
	lay, err := relayout.Build(r.Program(), r.ks)
	if err != nil {
		t.Skipf("chain not packable: %v", err)
	}
	if err := r.AttachLayout(lay); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(4096, sched.MaxWidth())
	r.SetRecorder(rec)
	rec.Enable()
	if _, err := r.Run(threads); err != nil {
		t.Fatal(err)
	}
	if rec.Runs() != 1 || len(rec.Spans()) == 0 {
		t.Fatalf("packed run not recorded: runs=%d spans=%d", rec.Runs(), len(rec.Spans()))
	}
}

func TestRecorderRingOverflow(t *testing.T) {
	r, sched := compileFixture(t, 300)
	perRun := 0
	for _, sp := range sched.S {
		perRun += len(sp)
	}
	rec := NewRecorder(perRun+perRun/2, sched.MaxWidth()) // 1.5 runs of capacity
	r.SetRecorder(rec)
	rec.Enable()
	for i := 0; i < 2; i++ {
		if _, err := r.Run(threads); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Breakdown().DroppedSpans; got != int64(perRun/2) {
		t.Fatalf("dropped = %d, want %d", got, perRun/2)
	}
	if got := len(rec.Spans()); got != perRun+perRun/2 {
		t.Fatalf("surviving spans = %d, want the ring capacity %d", got, perRun+perRun/2)
	}
	rec.Reset()
	if rec.Runs() != 0 || rec.Breakdown().DroppedSpans != 0 || len(rec.Spans()) != 0 {
		t.Fatal("Reset must clear runs, drops and spans")
	}
}

// TestRecorderOverheadBudget is the ≤5% instrumentation budget at the test
// tier: a solve with a recorder attached but disabled must stay within 5% of
// the untouched runner. Min-of-N timing with retries rides out scheduler
// noise; the comparison only fails after every attempt breached the budget.
func TestRecorderOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	r, sched := compileFixture(t, 2000)
	const rounds = 30
	minOf := func() time.Duration {
		best := time.Duration(0)
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			if _, err := r.Run(threads); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	rec := NewRecorder(64, sched.MaxWidth())
	var worst float64
	for attempt := 0; attempt < 5; attempt++ {
		r.SetRecorder(nil)
		base := minOf()
		r.SetRecorder(rec)
		disabled := minOf()
		overhead := float64(disabled-base) / float64(base)
		if overhead <= 0.05 {
			return
		}
		if overhead > worst {
			worst = overhead
		}
	}
	t.Fatalf("disabled recorder consistently >5%% slower than untouched baseline (worst %.1f%%)", 100*worst)
}
