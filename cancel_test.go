package sparsefusion

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparsefusion/internal/sparse"
)

// countdownCtx is a context whose Err() stays nil for the first `left` calls
// and reports cancellation afterwards. Facade cancellation is polled — every
// layer asks ctx.Err() at its own boundary — so counting the calls lets a
// test fire the cancellation at an exact layer deterministically, with no
// timer races: left=1 survives the serve-layer admission check and cancels at
// the executor's entry check, left=k survives k solver iterations.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
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

// TestOperationRunContextPreCancelled: a dead context refuses the run with a
// typed *CancelledError before any s-partition executes (SPartition == -1),
// and the operation stays fully usable — the next clean run is bit-identical
// to an operation that never saw a cancellation.
func TestOperationRunContextPreCancelled(t *testing.T) {
	m := RandomSPD(400, 4, 31)
	in := sparse.RandomVec(m.Rows(), 7)

	ref, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInput(in); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Output()

	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.SetInput(in); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = op.RunContext(ctx)
	var c *CancelledError
	if !errors.As(err, &c) {
		t.Fatalf("pre-cancelled RunContext returned %v, want *CancelledError", err)
	}
	if c.SPartition != -1 {
		t.Fatalf("SPartition = %d for a run that never started, want -1", c.SPartition)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("context cause not reachable via errors.Is")
	}
	if _, err := op.Run(); err != nil {
		t.Fatalf("clean run after cancellation: %v", err)
	}
	if !bitsSame(op.Output(), want) {
		t.Fatal("run after a cancelled run diverged from the reference")
	}
}

// TestSolveCGContextCancelsBetweenIterations: CG polls its context exactly
// once per iteration, so a countdown context cancelling on the (k+1)-th poll
// returns after exactly k iterations — and the partial iterate is
// bit-identical to an uncancelled solve truncated at MaxIter = k, the
// contract SolveCGContext documents.
func TestSolveCGContextCancelsBetweenIterations(t *testing.T) {
	const cutoff = 5
	m := RandomSPD(500, 4, 32)
	b := sparse.RandomVec(m.Rows(), 9)
	opts := CGOptions{Tol: 1e-300, MaxIter: 40, Options: Options{Threads: 2}}

	ctx := newCountdownCtx(cutoff)
	x, iters, err := m.SolveCGContext(ctx, b, opts)
	var c *CancelledError
	if !errors.As(err, &c) {
		t.Fatalf("cancelled solve returned %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("context cause not reachable via errors.Is")
	}
	if iters != cutoff {
		t.Fatalf("cancelled solve reported %d iterations, want %d", iters, cutoff)
	}

	refOpts := opts
	refOpts.MaxIter = cutoff
	xref, refIters, err := m.SolveCG(b, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if refIters != cutoff {
		t.Fatalf("reference solve ran %d iterations, want %d", refIters, cutoff)
	}
	if !bitsSame(x, xref) {
		t.Fatal("cancelled solve's partial iterate differs from the truncated reference")
	}
}

// TestSolveCGContextPreCancelled: a context dead at entry yields zero
// iterations and the zero iterate.
func TestSolveCGContextPreCancelled(t *testing.T) {
	m := RandomSPD(300, 4, 33)
	b := sparse.RandomVec(m.Rows(), 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, iters, err := m.SolveCGContext(ctx, b, CGOptions{MaxIter: 10})
	var c *CancelledError
	if !errors.As(err, &c) {
		t.Fatalf("got %v, want *CancelledError", err)
	}
	if iters != 0 {
		t.Fatalf("iterations = %d before any work, want 0", iters)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v after zero iterations, want 0", i, v)
		}
	}
}

// TestServedCancellationCounters drives the three typed rejection/cancel
// outcomes through a server and asserts each lands on its own /metrics
// counter: an expired context is refused at admission
// (spf_deadline_exceeded_total), an in-flight cancellation — staged
// deterministically with a countdown context that survives exactly the
// admission check — returns *CancelledError and counts in spf_cancels_total,
// and the watchdog/shed counters exist at zero.
func TestServedCancellationCounters(t *testing.T) {
	sc := NewScheduleCache(CacheConfig{})
	m := RandomSPD(300, 4, 34)
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2, Cache: sc})
	defer sv.Close()
	if _, err := op.RunOn(sv); err != nil {
		t.Fatal(err)
	}

	// Dead on arrival: refused by admission, the run never starts.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := op.RunOnContext(expired, sv); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired context returned %v, want ErrDeadlineExceeded", err)
	}

	// Cancelled in flight: the countdown survives the single admission-layer
	// poll, so the executor's own entry check observes the cancellation and
	// the request is typed *CancelledError, not a deadline rejection.
	var c *CancelledError
	if _, err := op.RunOnContext(newCountdownCtx(1), sv); !errors.As(err, &c) {
		t.Fatalf("in-flight cancellation returned %v, want *CancelledError", err)
	}

	// The operation is unharmed: a clean served run still succeeds.
	if _, err := op.RunOn(sv); err != nil {
		t.Fatalf("clean run after cancellations: %v", err)
	}

	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"spf_cancels_total 1",
		"spf_deadline_exceeded_total 1",
		"spf_queue_shed_total 0",
		"spf_watchdog_trips_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestTracerBuffersSurviveCancellation guards a subtle interaction: tracer
// sinks are bytes.Buffers in tests, and a cancelled run must not leave a
// half-written trace line behind.
func TestTracerBuffersSurviveCancellation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	op, err := NewOperation(TrsvTrsv, RandomSPD(300, 4, 35), Options{Threads: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := op.RunContext(ctx); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line != "" && !strings.HasSuffix(line, "}") {
			t.Fatalf("truncated trace line after cancellation: %q", line)
		}
	}
}

// TestScatterOperationCleanAfterCancelStorm: the packed rung of a scatter
// combination keeps spill-slot scratch between runs, so a run cancelled at
// whatever s-partition boundary the deadline happens to hit must leave it
// clean. Deadlines sweep from "before the first round" to "after the last";
// after each, an uncancelled run must reproduce the bits of an operation that
// was never cancelled. (internal/exec cancels inside every s-partition
// deterministically; this is the same contract through the facade.)
func TestScatterOperationCleanAfterCancelStorm(t *testing.T) {
	m, _, err := RandomSPD(3000, 6, 35).Reorder()
	if err != nil {
		t.Fatal(err)
	}
	in := sparse.RandomVec(m.Rows(), 11)
	newOp := func() *Operation {
		op, err := NewOperation(TrsvMv, m, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := op.SetInput(in); err != nil {
			t.Fatal(err)
		}
		if op.Mode() != ModePacked || op.layout.Scatter[1].Redirected == 0 {
			t.Fatalf("mode %s, scatter %+v: the fixture has no spill slots to dirty", op.Mode(), op.layout.Scatter[1])
		}
		return op
	}
	ref := newOp()
	rep, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Output()

	op := newOp()
	midRun := 0
	for i := 0; i <= 24; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), rep.Time*time.Duration(i)/16)
		_, err := op.RunContext(ctx)
		cancel()
		var c *CancelledError
		switch {
		case err == nil:
		case errors.As(err, &c):
			if c.SPartition >= 0 {
				midRun++
			}
		default:
			t.Fatalf("deadline %d/16 of a run: %v", i, err)
		}
		if _, err := op.Run(); err != nil {
			t.Fatal(err)
		}
		if !bitsSame(op.Output(), want) {
			t.Fatalf("clean run after deadline %d/16 of a run diverged from an operation never cancelled", i)
		}
	}
	t.Logf("%d of 25 runs were cancelled between s-partitions", midRun)
}
