package sparsefusion

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The one-thread schedule walk is the oracle the parallel rungs are compared
// against; the ladder's last rung, the kernels in program order, walks no
// schedule.

// walkOutput runs the state's schedule through exec.RunScheduleSequential over
// its own kernels and returns the output.
func walkOutput(t *testing.T, e *execState) []float64 {
	t.Helper()
	if _, err := exec.RunScheduleSequential(context.Background(), e.inst.Kernels, e.schedule()); err != nil {
		t.Fatal(err)
	}
	return e.Output()
}

// TestRungsMatchSequentialWalk: on schedules with width (ND-reordered
// fixtures, inspected at 1, 2 and 4 threads), every combination and the PCG
// chain compute on the compiled rung — and on the packed rung where they pack
// — what the walk of the same schedule computes: the same bits for gather-only
// chains, within 1e-9 for the two with a CSC scatter, whose sums associate by
// who ran what.
func TestRungsMatchSequentialWalk(t *testing.T) {
	scatter := map[Combination]bool{TrsvMv: true, Ic0Trsv: true}
	wide := 0
	for name, m := range map[string]*Matrix{
		"lap2d:40":   mustReorder(t, Laplacian2D(40)),
		"pow:4000:6": mustReorder(t, PowerLawSPD(4000, 6, 1)),
	} {
		x := testInput(m.Rows())
		for _, th := range []int{1, 2, 4} {
			for _, c := range []Combination{TrsvTrsv, DscalIlu0, TrsvMv, Ic0Trsv, Ilu0Trsv, DscalIc0, MvMv} {
				op, err := NewOperation(c, m, Options{Threads: th})
				if err != nil {
					t.Fatal(err)
				}
				if op.inst.Input != nil {
					if err := op.SetInput(x); err != nil {
						t.Fatal(err)
					}
				}
				if op.prog.MaxWidth > 1 {
					wide++
				}
				want := walkOutput(t, &op.execState)
				for _, rung := range []ExecMode{ModePacked, ModeCompiled} {
					if rung == ModeCompiled {
						op.runner.DetachLayout()
					}
					if op.Mode() != rung {
						continue // the factorizations do not pack
					}
					if _, err := op.Run(); err != nil {
						t.Fatal(err)
					}
					got := op.Output()
					if e := sparse.RelErr(got, want); e > 1e-9 || (!scatter[c] && !bitsSame(got, want)) {
						t.Fatalf("%s %s threads=%d: %s rung differs from the walk by %g", name, c, th, rung, e)
					}
				}
			}

			// The PCG chain, whole solves: every rung walks one trajectory.
			b := cgRHS(m.Rows())
			var wantX []float64
			var wantIters int
			for _, rung := range []ExecMode{ModeSequential, ModePacked, ModeCompiled} {
				cg, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: th}, Precondition: true, MaxIter: 25})
				if err != nil {
					t.Fatal(err)
				}
				switch rung {
				case ModeSequential:
					cg.runner = nil
				case ModeCompiled:
					cg.runner.DetachLayout()
				}
				if cg.Mode() != rung {
					t.Fatalf("%s pcg threads=%d: on %s, want %s", name, th, cg.Mode(), rung)
				}
				gotX, iters, _, err := cg.Solve(b)
				if err != nil {
					t.Fatal(err)
				}
				if rung == ModeSequential {
					wantX, wantIters = gotX, iters
				} else if iters != wantIters || !bitsSame(gotX, wantX) {
					t.Fatalf("%s pcg threads=%d: %s rung took %d iterations to a different x than the sequential rung's %d", name, th, rung, iters, wantIters)
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no fixture scheduled wider than one w-partition: nothing ran in parallel")
	}
}

// TestDemotedSessionServesBesidePackedOne: a session whose program faults
// demotes to the sequential rung inside Session.RunOnContext and from then on
// runs on its caller's goroutine, holding the admission slot it was given and
// leaving the worker set idle; a healthy session of another operation shares
// the one-slot server with it throughout. Nobody hangs, nobody runs beside
// anybody, and both return their reference bits.
func TestDemotedSessionServesBesidePackedOne(t *testing.T) {
	m := mustReorder(t, Laplacian2D(40))
	x := testInput(m.Rows())
	const runs = 20
	sessions := make([]*Session, 2)
	want := make([][]float64, 2)
	for i := range sessions {
		op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if op.prog.MaxWidth < 2 {
			t.Fatalf("schedule width %d: the fixture has nothing to run in parallel", op.prog.MaxWidth)
		}
		if err := op.SetInput(x); err != nil {
			t.Fatal(err)
		}
		want[i] = walkOutput(t, &op.execState)
		if sessions[i], err = op.NewSession(); err != nil {
			t.Fatal(err)
		}
		if err := sessions[i].SetInput(x); err != nil {
			t.Fatal(err)
		}
		if i == 0 { // a program of its own: only this session's rungs fault
			op.prog.Iters[len(op.prog.Iters)-1] = kernels.PackIter(0, 1<<20)
		}
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2})
	defer sv.Close()

	peak := watchPeakActive(sv)
	err := watchdog(t, 30*time.Second, func() error {
		errs := make([]error, len(sessions))
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, s *Session) {
				defer wg.Done()
				for r := 0; r < runs && errs[i] == nil; r++ {
					if _, err := s.RunOnContext(context.Background(), sv); err != nil {
						errs[i] = fmt.Errorf("session %d run %d: %w", i, r, err)
					} else if !bitsSame(s.Output(), want[i]) {
						errs[i] = fmt.Errorf("session %d run %d (%s rung) differs from the walk", i, r, s.Mode())
					}
				}
			}(i, s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	p := peak()
	if err != nil {
		t.Fatal(err)
	}
	if p > 1 {
		t.Fatalf("%d executions in flight on a one-slot server", p)
	}
	h := sessions[0].Health()
	if h.Mode != ModeSequential || len(h.Demotions) != 2 || h.Demotions[1].To != ModeSequential {
		t.Fatalf("faulting session: %+v, want two demotions down to sequential", h)
	}
	if h := sessions[1].Health(); h.Mode != ModePacked || len(h.Demotions) != 0 {
		t.Fatalf("healthy session: %+v, want packed with no demotions", h)
	}
	if st := sv.Stats(); st.Admitted != 2*runs || st.Active != 0 {
		t.Fatalf("server after %d runs: %+v", 2*runs, st)
	}
}
