package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparsefusion/internal/sparse"
)

// runTopoShuffled executes a kernel in a random dependency-respecting order,
// exercising the exact freedom a fused schedule has.
func runTopoShuffled(t *testing.T, k Kernel, seed int64) {
	t.Helper()
	k.Prepare()
	g := k.DAG()
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, g.N)
	for _, dst := range g.I {
		deg[dst]++
	}
	var ready []int
	for v := 0; v < g.N; v++ {
		if deg[v] == 0 {
			ready = append(ready, v)
		}
	}
	done := 0
	for len(ready) > 0 {
		idx := rng.Intn(len(ready))
		v := ready[idx]
		ready[idx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		k.Run(v)
		done++
		for _, s := range g.Succ(v) {
			deg[s]--
			if deg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done != g.N {
		t.Fatalf("topo shuffle executed %d of %d iterations", done, g.N)
	}
}

func denseMV(a *sparse.CSR, x []float64) []float64 {
	d := a.Dense()
	y := make([]float64, a.Rows)
	for r := range d {
		for c, v := range d[r] {
			y[r] += v * x[c]
		}
	}
	return y
}

func denseLowerSolve(l *sparse.CSR, b []float64) []float64 {
	d := l.Dense()
	x := make([]float64, len(b))
	for i := range b {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= d[i][j] * x[j]
		}
		x[i] = s / d[i][i]
	}
	return x
}

func TestSpMVCSRMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		a := sparse.Must(sparse.RandomSPD(60, 5, seed))
		x := sparse.RandomVec(60, seed+1)
		y := make([]float64, 60)
		k := NewSpMVCSR(a, x, y)
		RunSeq(k)
		return sparse.RelErr(y, denseMV(a, x)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMVCSCMatchesCSR(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(80, 6, 3))
	x := sparse.RandomVec(80, 4)
	y1, y2 := make([]float64, 80), make([]float64, 80)
	RunSeq(NewSpMVCSR(a, x, y1))
	RunSeq(NewSpMVCSC(a.ToCSC(), x, y2))
	if sparse.RelErr(y1, y2) > 1e-12 {
		t.Fatal("CSC SpMV disagrees with CSR SpMV")
	}
}

func TestSpMVCSCAtomicSameResult(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(50, 4, 9))
	x := sparse.RandomVec(50, 10)
	y1, y2 := make([]float64, 50), make([]float64, 50)
	k1 := NewSpMVCSC(a.ToCSC(), x, y1)
	k2 := NewSpMVCSC(a.ToCSC(), x, y2)
	k2.Atomic = true
	RunSeq(k1)
	RunSeq(k2)
	if sparse.RelErr(y1, y2) > 1e-12 {
		t.Fatal("atomic mode changed the result")
	}
}

func TestSpMVPlusCSR(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(40, 4, 7))
	x, b := sparse.RandomVec(40, 1), sparse.RandomVec(40, 2)
	y := make([]float64, 40)
	RunSeq(NewSpMVPlusCSR(a, x, b, y))
	want := denseMV(a, x)
	sparse.Axpy(1, b, want)
	if sparse.RelErr(y, want) > 1e-12 {
		t.Fatal("SpMV+b wrong")
	}
}

func TestSpTRSVCSRMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		a := sparse.Must(sparse.RandomSPD(70, 5, seed))
		l := a.Lower()
		b := sparse.RandomVec(70, seed+2)
		x := make([]float64, 70)
		k := NewSpTRSVCSR(l, b, x)
		RunSeq(k)
		return sparse.RelErr(x, denseLowerSolve(l, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpTRSVCSRShuffledOrder(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(90, 5, 5))
	l := a.Lower()
	b := sparse.RandomVec(90, 6)
	x := make([]float64, 90)
	k := NewSpTRSVCSR(l, b, x)
	want := denseLowerSolve(l, b)
	for seed := int64(0); seed < 5; seed++ {
		runTopoShuffled(t, k, seed)
		if sparse.RelErr(x, want) > 1e-9 {
			t.Fatalf("seed %d: shuffled TRSV wrong", seed)
		}
	}
}

func TestSpTRSVCSCMatchesCSR(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(75, 5, 11))
	l := a.Lower()
	b := sparse.RandomVec(75, 12)
	x1, x2 := make([]float64, 75), make([]float64, 75)
	RunSeq(NewSpTRSVCSR(l, b, x1))
	kc := NewSpTRSVCSC(l.ToCSC(), b, x2)
	RunSeq(kc)
	if sparse.RelErr(x1, x2) > 1e-9 {
		t.Fatal("CSC TRSV disagrees with CSR TRSV")
	}
	// Shuffled order with atomics must agree too.
	kc.Atomic = true
	for seed := int64(0); seed < 5; seed++ {
		runTopoShuffled(t, kc, seed)
		if sparse.RelErr(x2, x1) > 1e-9 {
			t.Fatal("shuffled atomic CSC TRSV wrong")
		}
	}
}

func TestSpTRSVRoundTrip(t *testing.T) {
	// Solve L x = L*ones: x must be ones.
	a := sparse.Must(sparse.RandomSPD(100, 6, 13))
	l := a.Lower()
	ones := sparse.Ones(100)
	b := make([]float64, 100)
	RunSeq(NewSpMVCSR(l, ones, b))
	x := make([]float64, 100)
	RunSeq(NewSpTRSVCSR(l, b, x))
	if sparse.RelErr(x, ones) > 1e-9 {
		t.Fatal("L \\ (L*1) != 1")
	}
}

// checkIC0 verifies the defining IC0 property: (L*L')[i][j] == A[i][j] for
// every (i,j) in the pattern of tril(A).
func checkIC0(t *testing.T, a *sparse.CSR, l *sparse.CSC) {
	t.Helper()
	lcsr := l.ToCSR()
	ld := lcsr.Dense()
	n := a.Rows
	for i := 0; i < n; i++ {
		for p := a.P[i]; p < a.P[i+1]; p++ {
			j := a.I[p]
			if j > i {
				continue
			}
			s := 0.0
			for k := 0; k <= j; k++ {
				s += ld[i][k] * ld[j][k]
			}
			if math.Abs(s-a.X[p]) > 1e-8*(1+math.Abs(a.X[p])) {
				t.Fatalf("(LL')[%d][%d] = %v, want %v", i, j, s, a.X[p])
			}
		}
	}
}

func TestSpIC0Property(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(60, 4, 21))
	k := NewSpIC0CSC(a.Lower().ToCSC())
	RunSeq(k)
	checkIC0(t, a, k.L)
}

func TestSpIC0ShuffledOrder(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(50, 4, 23))
	k := NewSpIC0CSC(a.Lower().ToCSC())
	for seed := int64(0); seed < 4; seed++ {
		runTopoShuffled(t, k, seed)
		checkIC0(t, a, k.L)
	}
}

func TestSpIC0OnLaplacian(t *testing.T) {
	a := sparse.Must(sparse.Laplacian2D(8))
	k := NewSpIC0CSC(a.Lower().ToCSC())
	RunSeq(k)
	checkIC0(t, a, k.L)
	// IC0 of a Laplacian must produce a useful preconditioner: solving
	// L L' z = r must reduce the residual of A z ~ r.
	n := a.Rows
	r := sparse.Ones(n)
	lc := k.L
	y := make([]float64, n)
	fw := NewSpTRSVCSC(lc, r, y)
	RunSeq(fw)
	// Backward solve with L' (CSR view of L CSC is upper-triangular solve).
	lt := lc.ToCSR().Transpose() // L' in CSR, upper triangular
	z := make([]float64, n)
	copy(z, y)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		var diag float64
		for p := lt.P[i]; p < lt.P[i+1]; p++ {
			switch {
			case lt.I[p] == i:
				diag = lt.X[p]
			case lt.I[p] > i:
				s -= lt.X[p] * z[lt.I[p]]
			}
		}
		z[i] = s / diag
	}
	az := denseMV(a, z)
	res0, res1 := sparse.Norm2(r), sparse.Norm2(sparse.Sub(az, r))
	if res1 > 0.8*res0 {
		t.Fatalf("IC0 preconditioner ineffective: residual %v vs %v", res1, res0)
	}
}

// checkILU0 verifies (L*U)[i][j] == A[i][j] on the pattern of A.
func checkILU0(t *testing.T, a0 []float64, k *SpILU0CSR) {
	t.Helper()
	l, u := k.SplitILU()
	ld, ud := l.Dense(), u.Dense()
	a := k.A
	for i := 0; i < a.Rows; i++ {
		for p := a.P[i]; p < a.P[i+1]; p++ {
			j := a.I[p]
			s := 0.0
			for kk := 0; kk <= min(i, j); kk++ {
				s += ld[i][kk] * ud[kk][j]
			}
			if math.Abs(s-a0[p]) > 1e-8*(1+math.Abs(a0[p])) {
				t.Fatalf("(LU)[%d][%d] = %v, want %v", i, j, s, a0[p])
			}
		}
	}
}

func TestSpILU0Property(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(60, 4, 31))
	a0 := append([]float64(nil), a.X...)
	k := mustILU0(a)
	RunSeq(k)
	checkILU0(t, a0, k)
}

func TestSpILU0ShuffledOrder(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(45, 4, 33))
	a0 := append([]float64(nil), a.X...)
	k := mustILU0(a)
	for seed := int64(0); seed < 4; seed++ {
		runTopoShuffled(t, k, seed)
		checkILU0(t, a0, k)
	}
}

func TestSpILU0SplitSolves(t *testing.T) {
	// ILU0 of a diagonally dominant matrix approximates A well enough that
	// solving L U x = b approximately solves A x = b.
	a := sparse.Must(sparse.RandomSPD(80, 3, 35))
	k := mustILU0(a.Clone())
	RunSeq(k)
	l, u := k.SplitILU()
	if !l.IsLowerTriangular() {
		t.Fatal("L not lower triangular")
	}
	xTrue := sparse.RandomVec(80, 36)
	b := denseMV(a, xTrue)
	y := denseLowerSolve(l, b)
	// Upper solve.
	ud := u.Dense()
	x := make([]float64, 80)
	for i := 79; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < 80; j++ {
			s -= ud[i][j] * x[j]
		}
		x[i] = s / ud[i][i]
	}
	if sparse.RelErr(x, xTrue) > 0.5 {
		t.Fatalf("ILU0 solve far from truth: relerr %v", sparse.RelErr(x, xTrue))
	}
}

func TestDScalCSR(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(50, 5, 41))
	d := JacobiScaling(a)
	out := a.Clone()
	k := NewDScalCSR(a, d, out)
	RunSeq(k)
	// The scaled matrix must have a unit diagonal.
	for i, v := range out.Diag() {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("scaled diagonal[%d] = %v", i, v)
		}
	}
	// Spot-check an off-diagonal entry.
	for r := 0; r < a.Rows; r++ {
		for p := a.P[r]; p < a.P[r+1]; p++ {
			want := d[r] * a.X[p] * d[a.I[p]]
			if math.Abs(out.X[p]-want) > 1e-12 {
				t.Fatalf("scaled (%d,%d) = %v, want %v", r, a.I[p], out.X[p], want)
			}
		}
	}
}

func TestDScalCSCMatchesCSR(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(40, 4, 43))
	d := JacobiScaling(a)
	outR := a.Clone()
	RunSeq(NewDScalCSR(a, d, outR))
	ac := a.ToCSC()
	outC := ac.Clone()
	RunSeq(NewDScalCSC(ac, d, outC))
	back := outC.ToCSR()
	for k := range outR.X {
		if math.Abs(outR.X[k]-back.X[k]) > 1e-12 {
			t.Fatal("CSC scaling disagrees with CSR scaling")
		}
	}
}

func TestDScalInPlaceReplay(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(30, 4, 45))
	want := append([]float64(nil), a.X...)
	d := JacobiScaling(a)
	k := NewDScalCSR(a, d, a) // in place
	RunSeq(k)
	RunSeq(k) // replay must restore inputs first
	// After one full run, diag is 1; scaling the ORIGINAL values again must
	// give the same result, proving Prepare restored them.
	for i, v := range a.Diag() {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("replayed in-place scaling corrupted diagonal[%d]=%v", i, v)
		}
	}
	k.Prepare()
	for i := range want {
		if a.X[i] != want[i] {
			t.Fatal("Prepare did not restore original values")
		}
	}
}

func TestKernelMetadata(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(30, 4, 51))
	l := a.Lower()
	x, y, b := make([]float64, 30), make([]float64, 30), sparse.RandomVec(30, 52)
	ks := []Kernel{
		NewSpMVCSR(a, x, y),
		NewSpMVCSC(a.ToCSC(), x, y),
		NewSpMVPlusCSR(a, x, b, y),
		NewSpTRSVCSR(l, b, x),
		NewSpTRSVCSC(l.ToCSC(), b, x),
		NewSpIC0CSC(l.ToCSC()),
		mustILU0(a.Clone()),
		NewDScalCSR(a, JacobiScaling(a), a.Clone()),
		NewDScalCSC(a.ToCSC(), JacobiScaling(a), a.ToCSC()),
	}
	for _, k := range ks {
		if k.Name() == "" {
			t.Fatal("kernel missing name")
		}
		if k.Iterations() != 30 {
			t.Fatalf("%s: iterations = %d", k.Name(), k.Iterations())
		}
		if k.DAG().N != 30 {
			t.Fatalf("%s: DAG size = %d", k.Name(), k.DAG().N)
		}
		if !k.DAG().IsAcyclic() {
			t.Fatalf("%s: DAG has a cycle", k.Name())
		}
		if k.Flops() <= 0 {
			t.Fatalf("%s: flops = %d", k.Name(), k.Flops())
		}
		if len(k.Footprint()) == 0 {
			t.Fatalf("%s: empty footprint", k.Name())
		}
		for _, v := range k.Footprint() {
			if v.Size <= 0 {
				t.Fatalf("%s: footprint variable %v has no size", k.Name(), v)
			}
		}
	}
}

func TestFootprintSharedKeys(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(20, 3, 61))
	l := a.Lower()
	b, x, z := sparse.RandomVec(20, 1), make([]float64, 20), make([]float64, 20)
	k1 := NewSpTRSVCSR(l, b, x) // produces x
	k2 := NewSpTRSVCSR(l, x, z) // consumes x
	common := 0
	for _, v1 := range k1.Footprint() {
		for _, v2 := range k2.Footprint() {
			if v1.Key == v2.Key && v1.Key != 0 {
				common += v1.Size
			}
		}
	}
	// Shared: L and x.
	want := l.Size() + 20
	if common != want {
		t.Fatalf("common footprint = %d, want %d", common, want)
	}
}

func TestVecVarEmpty(t *testing.T) {
	if v := VecVar(nil); v.Key != 0 || v.Size != 0 {
		t.Fatal("empty vector footprint should be zero")
	}
}

func TestSpTRSVTransMatchesDenseUpperSolve(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(70, 5, 61))
	lc := a.Lower().ToCSC()
	b := sparse.RandomVec(70, 62)
	x := make([]float64, 70)
	k := NewSpTRSVTransCSC(lc, b, x)
	RunSeq(k)
	// Dense reference: solve L' x = b by backward substitution.
	ld := lc.ToCSR().Dense()
	want := make([]float64, 70)
	for j := 69; j >= 0; j-- {
		s := b[j]
		for i := j + 1; i < 70; i++ {
			s -= ld[i][j] * want[i]
		}
		want[j] = s / ld[j][j]
	}
	if sparse.RelErr(x, want) > 1e-9 {
		t.Fatalf("transpose solve wrong by %v", sparse.RelErr(x, want))
	}
}

func TestSpTRSVTransShuffledOrder(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(60, 4, 63))
	lc := a.Lower().ToCSC()
	b := sparse.RandomVec(60, 64)
	x := make([]float64, 60)
	k := NewSpTRSVTransCSC(lc, b, x)
	RunSeq(k)
	want := append([]float64(nil), x...)
	for seed := int64(0); seed < 4; seed++ {
		runTopoShuffled(t, k, seed)
		if sparse.RelErr(x, want) > 1e-12 {
			t.Fatalf("seed %d: shuffled transpose solve diverges", seed)
		}
	}
}

func TestSpTRSVTransRoundTrip(t *testing.T) {
	// L' \ (L' * ones) must be ones.
	a := sparse.Must(sparse.RandomSPD(90, 5, 65))
	lc := a.Lower().ToCSC()
	lt := lc.ToCSR().Transpose() // L' in CSR (upper triangular)
	ones := sparse.Ones(90)
	b := make([]float64, 90)
	RunSeq(NewSpMVCSR(lt, ones, b))
	x := make([]float64, 90)
	RunSeq(NewSpTRSVTransCSC(lc, b, x))
	if sparse.RelErr(x, ones) > 1e-9 {
		t.Fatal("L' \\ (L'*1) != 1")
	}
}

func mustILU0(a *sparse.CSR) *SpILU0CSR {
	k, err := NewSpILU0CSR(a)
	if err != nil {
		panic(err)
	}
	return k
}
