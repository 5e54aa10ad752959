package sparsefusion

import (
	"bytes"
	"testing"

	"sparsefusion/internal/sparse"
)

func TestSolveCGUnpreconditioned(t *testing.T) {
	m := Laplacian2D(20)
	n := m.Rows()
	xTrue := sparse.RandomVec(n, 5)
	b, err := m.MulVec(xTrue)
	if err != nil {
		t.Fatal(err)
	}
	x, iters, err := m.SolveCG(b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 || iters >= 10*n {
		t.Fatalf("iters = %d", iters)
	}
	if sparse.RelErr(x, xTrue) > 1e-7 {
		t.Fatalf("CG solution off by %v", sparse.RelErr(x, xTrue))
	}
}

func TestSolveCGPreconditionedConvergesFaster(t *testing.T) {
	m := Laplacian2D(40)
	n := m.Rows()
	b := sparse.Ones(n)
	_, plain, err := m.SolveCG(b, CGOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	xp, pre, err := m.SolveCG(b, CGOptions{Tol: 1e-8, Precondition: true})
	if err != nil {
		t.Fatal(err)
	}
	if pre >= plain {
		t.Fatalf("PCG iterations %d not below CG %d", pre, plain)
	}
	// The preconditioned solution must solve the system too.
	ax, err := m.MulVec(xp)
	if err != nil {
		t.Fatal(err)
	}
	if res := sparse.Norm2(sparse.Sub(ax, b)) / sparse.Norm2(b); res > 1e-7 {
		t.Fatalf("PCG residual %v", res)
	}
}

func TestSolveCGEdgeCases(t *testing.T) {
	m := Laplacian2D(5)
	if _, _, err := m.SolveCG(make([]float64, 3), CGOptions{}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
	x, iters, err := m.SolveCG(make([]float64, m.Rows()), CGOptions{})
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs: iters=%d err=%v", iters, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
	rect, _ := NewMatrix(2, 3, nil)
	if _, _, err := rect.SolveCG(nil, CGOptions{}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	// Indefinite matrix must report breakdown, not return garbage silently.
	indef, _ := NewMatrix(2, 2, []Entry{{0, 0, 1}, {1, 1, -1}})
	if _, _, err := indef.SolveCG([]float64{0, 1}, CGOptions{MaxIter: 10}); err == nil {
		t.Fatal("CG breakdown not reported for indefinite matrix")
	}
}

func TestScheduleSaveLoadRoundTrip(t *testing.T) {
	m := RandomSPD(200, 5, 7)
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.RandomVec(200, 8)
	if err := op.SetInput(x); err != nil {
		t.Fatal(err)
	}
	op.Run()
	want := op.Output()

	var buf bytes.Buffer
	if err := op.SaveSchedule(&buf); err != nil {
		t.Fatal(err)
	}
	op2, err := NewOperationFromSchedule(TrsvTrsv, m, &buf, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := op2.SetInput(x); err != nil {
		t.Fatal(err)
	}
	op2.Run()
	if sparse.RelErr(op2.Output(), want) > 1e-12 {
		t.Fatal("loaded schedule computes a different result")
	}
	if op2.Barriers() != op.Barriers() {
		t.Fatal("loaded schedule shape differs")
	}
}

func TestScheduleLoadRejectsWrongPattern(t *testing.T) {
	m1 := RandomSPD(150, 5, 1)
	m2 := RandomSPD(150, 5, 2) // same size, different pattern
	op, err := NewOperation(TrsvTrsv, m1, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := op.SaveSchedule(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOperationFromSchedule(TrsvTrsv, m2, &buf, Options{Threads: 2}); err == nil {
		t.Fatal("stale schedule accepted for a different pattern")
	}
}

func TestScheduleLoadRejectsGarbage(t *testing.T) {
	m := Laplacian2D(5)
	if _, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewBufferString("not a schedule"), Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewBuffer(nil), Options{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestScheduleLoadRejectsBareSchedule: the loader reads only SaveSchedule's
// fingerprinted container. The bare serialization of a valid schedule, which
// carries no fingerprint to check, is refused with an error before the
// loader builds the fusion input or anything runs.
func TestScheduleLoadRejectsBareSchedule(t *testing.T) {
	m := RandomSPD(200, 5, 7)
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	loaded, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewReader(op.schedule().Bytes()), Options{Threads: 2, Tracer: NewTracer(&events)})
	if err == nil || loaded != nil {
		t.Fatal("a bare schedule without a fingerprint was accepted")
	}
	if events.Len() != 0 {
		t.Fatalf("the refused load traced events:\n%s", events.String())
	}
}
