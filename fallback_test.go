package sparsefusion

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The degradation ladder under test: construction-time attach failures and
// run-time executor faults demote an Operation packed -> compiled ->
// sequential, leaving the operation usable and its results bit-identical to
// the one-thread oracle. Numerical
// breakdowns, by contrast, never demote — they are a property of the data, not
// the rung.

// watchdog fails the test when fn does not return within the deadline — a
// worker fault must never hang a barrier, whatever the worker count.
func watchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("did not return within %v: executor hang", d)
		return nil
	}
}

func TestCorruptSavedScheduleRejected(t *testing.T) {
	m := RandomSPD(300, 4, 7)
	for th := 1; th <= 8; th++ {
		op, err := NewOperation(TrsvTrsv, m, Options{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := op.SaveSchedule(&buf); err != nil {
			t.Fatal(err)
		}
		// Corrupt the saved schedule's iteration indices: re-decode the
		// fingerprinted container, point an iteration far out of range,
		// re-encode under the same fingerprint. The loader must reject it
		// with a typed validation error, not execute it.
		key, sched, err := cache.ReadScheduleFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sp := sched.S[len(sched.S)-1]
		wp := sp[len(sp)-1]
		wp[len(wp)-1].Idx = 1 << 20
		var corrupt bytes.Buffer
		if err := cache.WriteScheduleFile(&corrupt, key, sched); err != nil {
			t.Fatal(err)
		}
		err = watchdog(t, 10*time.Second, func() error {
			badOp, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewReader(corrupt.Bytes()), Options{Threads: th})
			if err != nil {
				return err
			}
			_, err = badOp.Run()
			return err
		})
		if err == nil {
			t.Fatalf("threads=%d: corrupt schedule was accepted and executed", th)
		}

		// The untouched serialized schedule still loads, and the loaded
		// operation's Run is bit-identical to the one-thread oracle.
		good, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewReader(buf.Bytes()), Options{Threads: th})
		if err != nil {
			t.Fatalf("threads=%d: valid schedule rejected: %v", th, err)
		}
		if err := watchdog(t, 10*time.Second, func() error { _, err := good.Run(); return err }); err != nil {
			t.Fatalf("threads=%d: valid run failed: %v", th, err)
		}
		ref, err := NewOperation(TrsvTrsv, m, Options{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.RunScheduleSequential(context.Background(), ref.inst.Kernels, ref.schedule()); err != nil {
			t.Fatal(err)
		}
		got, want := good.Output(), ref.inst.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d: output[%d] = %v, reference %v", th, i, got[i], want[i])
			}
		}
	}
}

func TestRunFaultDemotesDownTheLadder(t *testing.T) {
	m := RandomSPD(300, 4, 9)
	for th := 1; th <= 8; th++ {
		op, err := NewOperation(TrsvTrsv, m, Options{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		if op.Mode() != ModePacked {
			t.Fatalf("threads=%d: TrsvTrsv starts on %s, want packed", th, op.Mode())
		}
		// Corrupt the compiled program shared by the packed and compiled
		// rungs: the ladder demotes twice and the sequential rung — which
		// runs the kernels in program order, reading no program — completes
		// the run.
		prog := op.runner.Program()
		prog.Iters[len(prog.Iters)-1] = kernels.PackIter(0, 1<<20)
		err = watchdog(t, 10*time.Second, func() error { _, err := op.Run(); return err })
		if err != nil {
			t.Fatalf("threads=%d: ladder did not absorb the fault: %v", th, err)
		}
		h := op.Health()
		if h.Mode != ModeSequential {
			t.Fatalf("threads=%d: mode %s after double fault, want sequential", th, h.Mode)
		}
		if len(h.Demotions) != 2 {
			t.Fatalf("threads=%d: %d demotions recorded, want 2: %+v", th, len(h.Demotions), h.Demotions)
		}
		if h.Demotions[0].From != ModePacked || h.Demotions[0].To != ModeCompiled ||
			h.Demotions[1].From != ModeCompiled || h.Demotions[1].To != ModeSequential {
			t.Fatalf("threads=%d: demotion chain %+v", th, h.Demotions)
		}

		// The demoted operation's subsequent valid Run is bit-identical to
		// the oracle on a fresh instance.
		if _, err := op.Run(); err != nil {
			t.Fatalf("threads=%d: demoted operation unusable: %v", th, err)
		}
		ref, err := NewOperation(TrsvTrsv, m, Options{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.RunScheduleSequential(context.Background(), ref.inst.Kernels, ref.schedule()); err != nil {
			t.Fatal(err)
		}
		got, want := op.Output(), ref.inst.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d: output[%d] = %v, reference %v", th, i, got[i], want[i])
			}
		}
	}
}

func TestUnpackableChainRecordsConstructionDemotion(t *testing.T) {
	// DscalIlu0 has no packed layout; the operation must start on the
	// compiled rung with the construction demotion on record.
	op, err := NewOperation(DscalIlu0, RandomSPD(200, 4, 3), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := op.Health()
	if h.Mode != ModeCompiled {
		t.Fatalf("mode %s, want compiled", h.Mode)
	}
	if len(h.Demotions) != 1 || h.Demotions[0].From != ModePacked || h.Demotions[0].To != ModeCompiled {
		t.Fatalf("demotions %+v, want one packed->compiled", h.Demotions)
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownDoesNotDemote(t *testing.T) {
	// An indefinite matrix breaks down IC0. That is a property of the
	// numbers: the ladder must surface the typed error without demoting.
	a := sparse.Must(sparse.RandomSPD(150, 4, 21))
	for p := a.P[80]; p < a.P[81]; p++ {
		if a.I[p] == 80 {
			a.X[p] = -5
		}
	}
	m := newMatrix(a) // a Matrix's arrays are never written once wrapped
	op, err := NewOperation(Ic0Trsv, m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := op.Health()
	_, err = op.Run()
	if err == nil {
		t.Fatal("IC0 on an indefinite matrix ran without error")
	}
	var bd *kernels.BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("error %T does not unwrap to a BreakdownError: %v", err, err)
	}
	after := op.Health()
	if after.Mode != before.Mode || len(after.Demotions) != len(before.Demotions) {
		t.Fatalf("breakdown changed health %+v -> %+v", before, after)
	}
	// On the last rung too: the kernels in program order break down alike.
	op.runner = nil
	if _, err := op.Run(); !errors.As(err, &bd) {
		t.Fatalf("sequential rung: error %T does not unwrap to a BreakdownError: %v", err, err)
	}
	if h := op.Health(); h.Mode != ModeSequential || len(h.Demotions) != len(before.Demotions) {
		t.Fatalf("breakdown on the sequential rung changed health to %+v", h)
	}
}

func TestPreconditionerTranslatesBreakdown(t *testing.T) {
	// The solver-facing wrapper must name the kernel and row in its message
	// and keep the BreakdownError reachable through errors.As.
	a := sparse.Must(sparse.RandomSPD(100, 3, 2))
	for p := a.P[40]; p < a.P[41]; p++ {
		if a.I[p] == 40 {
			a.X[p] = -3
		}
	}
	m := newMatrix(a)
	_, err := NewIC0Preconditioner(m, Options{Threads: 2})
	if err == nil {
		t.Fatal("IC0 preconditioner setup accepted an indefinite matrix")
	}
	var bd *kernels.BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("setup error %T hides the BreakdownError: %v", err, err)
	}
}

// TestDemotedRunsMatchRunSequential: an operation of every combination whose
// program faults on every rung it starts on finishes on the sequential rung
// with combos.Instance.RunSequential's output, bit for bit: the rung runs the
// same loops in the same order, the two chains with a CSC scatter included
// (their atomic adds, if armed, add in that order too). A Gauss-Seidel solver
// demoted the same way sweeps to the bits of its chain run by RunSequential,
// and a demoted PCG solver solves to the bits of a healthy one.
func TestDemotedRunsMatchRunSequential(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	x := testInput(m.Rows())
	for _, c := range []Combination{TrsvTrsv, DscalIlu0, TrsvMv, Ic0Trsv, Ilu0Trsv, DscalIc0, MvMv} {
		ref, err := combos.Assemble(combos.ID(c), m.forms)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Input != nil {
			copy(ref.Input, x)
		}
		if _, err := ref.RunSequential(); err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshot()

		op, err := NewOperation(c, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if op.inst.Input != nil {
			if err := op.SetInput(x); err != nil {
				t.Fatal(err)
			}
		}
		corruptLoop0(op.prog)
		if err := watchdog(t, 10*time.Second, func() error { _, err := op.Run(); return err }); err != nil {
			t.Fatalf("%s: ladder did not absorb the fault: %v", c, err)
		}
		got := op.Output()
		if h := op.Health(); h.Mode != ModeSequential || len(h.Demotions) != 2 {
			t.Fatalf("%s: %+v, want two demotions down to sequential", c, h)
		}
		if !bitsSame(got, want) {
			t.Fatalf("%s: the demoted operation differs from RunSequential by %g", c, sparse.RelErr(got, want))
		}
	}

	const sweeps, runs = 2, 5
	gs, err := NewGaussSeidel(m, GSOptions{Options: Options{Threads: 2}, SweepsPerFusion: sweeps})
	if err != nil {
		t.Fatal(err)
	}
	corruptLoop0(gs.state.prog)
	gotX, n, err := gs.Solve(x, 0, runs*sweeps)
	if err != nil || n != runs*sweeps || gs.state.Mode() != ModeSequential {
		t.Fatalf("gauss-seidel: %d sweeps on %s, err %v", n, gs.state.Mode(), err)
	}
	chain, err := combos.BuildGS(m.csr, sweeps)
	if err != nil {
		t.Fatal(err)
	}
	copy(chain.Input, x)
	for r := 0; r < runs; r++ {
		if _, err := chain.RunSequential(); err != nil {
			t.Fatal(err)
		}
		copy(chain.GSX0, chain.Output)
	}
	if !bitsSame(gotX, chain.GSX0) {
		t.Fatal("gauss-seidel: the demoted solver differs from its chain run by RunSequential")
	}

	b := cgRHS(m.Rows())
	var want []float64
	var wantIters int
	for _, demote := range []bool{false, true} {
		cg, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: 2}, Precondition: true, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if demote {
			corruptLoop0(cg.prog)
		}
		got, iters, _, err := cg.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !demote {
			want, wantIters = got, iters
		} else if cg.Mode() != ModeSequential || iters != wantIters || !bitsSame(got, want) {
			t.Fatalf("pcg: on %s, %d iterations to a different x than the healthy solver's %d", cg.Mode(), iters, wantIters)
		}
	}
}
