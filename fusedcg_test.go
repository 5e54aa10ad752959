package sparsefusion

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sparsefusion/internal/kernels"
)

func cgRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return b
}

func relResidual(t *testing.T, m *Matrix, x, b []float64) float64 {
	t.Helper()
	ax, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	num, den := 0.0, 0.0
	for i := range b {
		d := ax[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// TestFusedCGSolves: the chain-fused solver converges to the same answer as
// the host-orchestrated SolveCG on both CG and PCG, and the fused chain runs
// with one barrier per s-partition (Report.Barriers / iterations equals the
// schedule's s-partition count).
func TestFusedCGSolves(t *testing.T) {
	m := Laplacian2D(30)
	b := cgRHS(m.Rows())
	for _, pre := range []bool{false, true} {
		f, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: 4}, Precondition: pre, Tol: 1e-10})
		if err != nil {
			t.Fatalf("pre=%v: %v", pre, err)
		}
		wantChain := 6
		if pre {
			wantChain = 8
		}
		if f.ChainLength() != wantChain {
			t.Fatalf("pre=%v: chain length %d, want %d", pre, f.ChainLength(), wantChain)
		}
		x, it, rep, err := f.Solve(b)
		if err != nil {
			t.Fatalf("pre=%v: %v", pre, err)
		}
		if it <= 0 || it >= f.maxIter {
			t.Fatalf("pre=%v: did not converge (%d iterations)", pre, it)
		}
		if res := relResidual(t, m, x, b); res > 1e-8 {
			t.Fatalf("pre=%v: residual %g", pre, res)
		}
		if rep.Barriers != it*f.Barriers() {
			t.Fatalf("pre=%v: %d barriers over %d iterations, want %d per fused run",
				pre, rep.Barriers, it, f.Barriers())
		}
		host, hostIt, err := m.SolveCG(b, CGOptions{Options: Options{Threads: 4}, Tol: 1e-10, Precondition: pre})
		if err != nil {
			t.Fatalf("pre=%v host: %v", pre, err)
		}
		// Same Krylov process, different reduction associativity: iteration
		// counts must be near-identical and solutions equal to solver
		// tolerance.
		if d := it - hostIt; d < -2 || d > 2 {
			t.Fatalf("pre=%v: fused %d iterations, host %d", pre, it, hostIt)
		}
		for i := range x {
			if math.Abs(x[i]-host[i]) > 1e-6*(1+math.Abs(host[i])) {
				t.Fatalf("pre=%v: x[%d] = %v, host %v", pre, i, x[i], host[i])
			}
		}
	}
}

// TestFusedCGBitIdentical: the solution, iteration count, and barrier totals
// are bit-identical at every worker count 1..8 and on a demoted (compiled,
// non-packed) executor — the chain's reproducibility contract.
func TestFusedCGBitIdentical(t *testing.T) {
	m := RandomSPD(5200, 6, 42) // 11 vector blocks of combos.CGBlock
	b := cgRHS(m.Rows())
	for _, pre := range []bool{false, true} {
		var ref []float64
		var refIt int
		for _, th := range []int{1, 2, 3, 5, 8} {
			f, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: th}, Precondition: pre, Tol: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			x, it, _, err := f.Solve(b)
			if err != nil {
				t.Fatalf("pre=%v th=%d: %v", pre, th, err)
			}
			if ref == nil {
				ref, refIt = x, it
				continue
			}
			if it != refIt {
				t.Fatalf("pre=%v th=%d: %d iterations, reference %d", pre, th, it, refIt)
			}
			for i := range ref {
				if x[i] != ref[i] {
					t.Fatalf("pre=%v th=%d: x[%d] = %x, reference %x", pre, th, i, x[i], ref[i])
				}
			}
		}
		// Demote off the packed rung: the compiled executor must agree bit
		// for bit too.
		f, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: 4}, Precondition: pre, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		f.mu.Lock()
		if f.runner != nil {
			f.runner.DetachLayout()
			f.layout = nil
		}
		f.mu.Unlock()
		if f.Mode() != ModeCompiled {
			t.Fatalf("pre=%v: mode %s after detach", pre, f.Mode())
		}
		x, it, _, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if it != refIt {
			t.Fatalf("pre=%v compiled: %d iterations, reference %d", pre, it, refIt)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("pre=%v compiled: x[%d] = %x, reference %x", pre, i, x[i], ref[i])
			}
		}
	}
}

// TestFusedCGRepeatSolves: one inspected chain serves many right-hand sides
// (the amortization contract) and repeated solves of one RHS agree exactly.
func TestFusedCGRepeatSolves(t *testing.T) {
	m := Laplacian2D(20)
	f, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: 4}, Precondition: true})
	if err != nil {
		t.Fatal(err)
	}
	b := cgRHS(m.Rows())
	x1, it1, _, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	b2 := make([]float64, m.Rows())
	for i := range b2 {
		b2[i] = float64(i%3) - 1
	}
	if _, _, _, err := f.Solve(b2); err != nil {
		t.Fatal(err)
	}
	x3, it3, _, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if it3 != it1 {
		t.Fatalf("repeat solve took %d iterations, first %d", it3, it1)
	}
	for i := range x1 {
		if x3[i] != x1[i] {
			t.Fatalf("repeat solve diverged at %d: %x vs %x", i, x3[i], x1[i])
		}
	}
}

// TestFusedCGBreakdownDiagnostics: an indefinite matrix must surface the SPD
// curvature breakdown with the kernel attribution, not NaNs.
func TestFusedCGBreakdown(t *testing.T) {
	// Assemble an indefinite symmetric matrix: strong negative diagonal block,
	// 4 vector blocks of combos.CGBlock.
	n := 1600
	var entries []Entry
	for i := 0; i < n; i++ {
		d := 4.0
		if i%2 == 0 {
			d = -4.0
		}
		entries = append(entries, Entry{Row: i, Col: i, Val: d})
		if i+1 < n {
			entries = append(entries, Entry{Row: i, Col: i + 1, Val: 1}, Entry{Row: i + 1, Col: i, Val: 1})
		}
	}
	m, err := NewMatrix(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = f.Solve(cgRHS(n))
	if err == nil {
		t.Fatal("indefinite matrix solved without breakdown")
	}
	if !strings.Contains(err.Error(), "SPD") {
		t.Fatalf("breakdown message does not name the SPD requirement: %v", err)
	}
	var brk *kernels.BreakdownError
	if !errors.As(err, &brk) {
		t.Fatalf("breakdown does not unwrap to *kernels.BreakdownError: %v", err)
	}
	if brk.Kernel != "VecAxpyDot" {
		t.Fatalf("breakdown attributed to %q, want the curvature-checking VecAxpyDot", brk.Kernel)
	}
}

// TestFusedCGInputValidation covers the constructor and Solve guards.
func TestFusedCGInputValidation(t *testing.T) {
	m := Laplacian2D(8)
	f, err := NewFusedCG(m, FusedCGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.Solve(make([]float64, 3)); err == nil {
		t.Fatal("short rhs accepted")
	}
	x, it, _, err := f.Solve(make([]float64, m.Rows()))
	if err != nil || it != 0 {
		t.Fatalf("zero rhs: it=%d err=%v", it, err)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatal("zero rhs must return the zero vector")
		}
	}
}

// TestFusedCGCacheAndFingerprint: chain fingerprints hit the schedule cache
// across solver instances and never collide with each other across chain
// shape (CG vs PCG).
func TestFusedCGCacheAndFingerprint(t *testing.T) {
	m := Laplacian2D(46) // 5 vector blocks of combos.CGBlock
	sc := NewScheduleCache(CacheConfig{})
	opts := func(pre bool) FusedCGOptions {
		return FusedCGOptions{Options: Options{Threads: 4, Cache: sc}, Precondition: pre}
	}
	f1, err := NewFusedCG(m, opts(true))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFusedCG(m, opts(true))
	if err != nil {
		t.Fatal(err)
	}
	if f1.Fingerprint() != f2.Fingerprint() {
		t.Fatal("identical chains fingerprint differently")
	}
	st := sc.Stats()
	if st.Misses != 1 || st.Hits+st.Waits != 1 {
		t.Fatalf("cache stats after two identical chains: %+v", st)
	}
	f3, err := NewFusedCG(m, opts(false))
	if err != nil {
		t.Fatal(err)
	}
	if f1.Fingerprint() == f3.Fingerprint() {
		t.Fatal("distinct chain shapes share a fingerprint")
	}
	// A cached (shared-artifact) solver still solves bit-identically.
	b := cgRHS(m.Rows())
	x1, it1, _, err := f1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2, it2, _, err := f2.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if it1 != it2 {
		t.Fatalf("cached solver took %d iterations, fresh %d", it2, it1)
	}
	for i := range x1 {
		if x2[i] != x1[i] {
			t.Fatalf("cached solver diverged at %d", i)
		}
	}
}

// TestFusedCGOnServer: served fused iterations flow through admission and the
// metrics surface — spf_barriers_total advances by the chain's barrier count
// and the chain-length gauge reports k.
func TestFusedCGOnServer(t *testing.T) {
	m := Laplacian2D(16)
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 4})
	defer sv.Close()
	f, err := NewFusedCG(m, FusedCGOptions{Options: Options{Threads: 4}, Precondition: true})
	if err != nil {
		t.Fatal(err)
	}
	b := cgRHS(m.Rows())
	x, it, rep, err := f.SolveOn(b, sv)
	if err != nil {
		t.Fatal(err)
	}
	if res := relResidual(t, m, x, b); res > 1e-7 {
		t.Fatalf("served solve residual %g", res)
	}
	if got := sv.obs.barriers.Value(); got != int64(rep.Barriers) {
		t.Fatalf("spf_barriers_total = %d, report says %d", got, rep.Barriers)
	}
	if got := sv.obs.chainLen.Value(); got != 8 {
		t.Fatalf("spf_chain_length = %v, want 8", got)
	}
	if got := sv.obs.solves.Value(); got != int64(it) {
		t.Fatalf("spf_solves_total = %d, want one per iteration (%d)", got, it)
	}
}
