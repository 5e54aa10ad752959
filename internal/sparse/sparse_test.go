package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromTripletsBasic(t *testing.T) {
	a, err := FromTriplets(3, 3, []Triplet{
		{0, 0, 1}, {2, 1, 5}, {1, 1, 3}, {0, 2, 2}, {2, 2, 6}, {1, 0, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 0, 2}, {4, 3, 0}, {0, 5, 6}}
	got := a.Dense()
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("dense[%d][%d] = %v, want %v", r, c, got[r][c], want[r][c])
			}
		}
	}
}

func TestFromTripletsDuplicatesSummed(t *testing.T) {
	a, err := FromTriplets(2, 2, []Triplet{{0, 1, 1}, {0, 1, 2}, {1, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", a.NNZ())
	}
	if a.At(0, 1) != 3 {
		t.Fatalf("duplicate entries not summed: got %v", a.At(0, 1))
	}
}

func TestFromTripletsOutOfBounds(t *testing.T) {
	if _, err := FromTriplets(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-bounds row")
	}
	if _, err := FromTriplets(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("expected error for negative column")
	}
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	ts := make([]Triplet, nnz)
	for i := range ts {
		ts[i] = Triplet{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()}
	}
	a, err := FromTriplets(rows, cols, ts)
	if err != nil {
		panic(err)
	}
	return a
}

func TestCSRtoCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomCSR(rng, rows, cols, rng.Intn(rows*cols+1))
		b := a.ToCSC().ToCSR()
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(b.I) != len(a.I) {
			t.Fatalf("trial %d: nnz changed %d -> %d", trial, len(a.I), len(b.I))
		}
		for k := range a.I {
			if a.I[k] != b.I[k] || a.X[k] != b.X[k] {
				t.Fatalf("trial %d: entry %d differs", trial, k)
			}
		}
	}
}

func TestTransposeTwiceIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		a := randomCSR(rng, rows, cols, rng.Intn(60))
		b := a.Transpose().Transpose()
		if b.Rows != a.Rows || b.Cols != a.Cols || len(b.I) != len(a.I) {
			return false
		}
		for k := range a.I {
			if a.I[k] != b.I[k] || a.X[k] != b.X[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeValues(t *testing.T) {
	a, _ := FromTriplets(2, 3, []Triplet{{0, 2, 7}, {1, 0, -2}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 0) != 7 || at.At(0, 1) != -2 {
		t.Fatal("transpose values wrong")
	}
}

func TestLowerUpperSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 15, 15, 80)
	l, u := a.Lower(), a.StrictUpper()
	if !l.IsLowerTriangular() {
		t.Fatal("Lower() not lower triangular")
	}
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			v := a.At(r, c)
			if c < r && l.At(r, c) != v {
				t.Fatalf("lower(%d,%d) = %v, want %v", r, c, l.At(r, c), v)
			}
			if c > r && u.At(r, c) != v {
				t.Fatalf("upper(%d,%d) = %v, want %v", r, c, u.At(r, c), v)
			}
		}
	}
}

func TestLowerInsertsUnitDiagonal(t *testing.T) {
	a, _ := FromTriplets(3, 3, []Triplet{{1, 0, 2}}) // no diagonal at all
	l := a.Lower()
	for r := 0; r < 3; r++ {
		if l.At(r, r) != 1 {
			t.Fatalf("missing unit diagonal at %d", r)
		}
	}
}

// TestStrictPartsDisjointCover: Lower and StrictUpper split a between them,
// each entry in exactly one, with Lower's unit diagonal where a stores none.
func TestStrictPartsDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSR(rng, 12, 12, 60)
	l, su := a.Lower(), a.StrictUpper()
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			want := a.At(r, c)
			if r == c && want == 0 {
				want = 1
			}
			if got := l.At(r, c) + su.At(r, c); got != want {
				t.Fatalf("(%d,%d): Lower + StrictUpper = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestLaplacian2DStructure(t *testing.T) {
	a := Must(Laplacian2D(4))
	if a.Rows != 16 || !a.Symmetric(make([]int, a.Rows), false) {
		t.Fatal("laplacian2d malformed")
	}
	if a.At(0, 0) != 4 || a.At(0, 1) != -1 || a.At(0, 4) != -1 {
		t.Fatal("laplacian2d stencil wrong")
	}
	// Interior vertex has 4 neighbors.
	r := 1*4 + 1
	if a.P[r+1]-a.P[r] != 5 {
		t.Fatalf("interior row nnz = %d, want 5", a.P[r+1]-a.P[r])
	}
}

func TestLaplacian3DStructure(t *testing.T) {
	a := Must(Laplacian3D(3))
	if a.Rows != 27 || !a.Symmetric(make([]int, a.Rows), false) {
		t.Fatal("laplacian3d malformed")
	}
	center := (1*3+1)*3 + 1
	if a.P[center+1]-a.P[center] != 7 {
		t.Fatalf("center row nnz = %d, want 7", a.P[center+1]-a.P[center])
	}
}

func testSPD(t *testing.T, a *CSR, name string) { testSPDStrict(t, a, name, true) }

// testSPDStrict verifies symmetry and diagonal dominance. Laplacians are only
// weakly dominant (interior rows have |diag| == row sum) yet remain SPD
// because they are irreducible with strict dominance on boundary rows.
func testSPDStrict(t *testing.T, a *CSR, name string, strict bool) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !a.Symmetric(make([]int, a.Rows), true) {
		t.Fatalf("%s: not symmetric", name)
	}
	// Diagonal dominance check (sufficient for PD given positive diagonal).
	for r := 0; r < a.Rows; r++ {
		diag, off := 0.0, 0.0
		for k := a.P[r]; k < a.P[r+1]; k++ {
			if a.I[k] == r {
				diag = a.X[k]
			} else {
				if a.X[k] > 0 {
					off += a.X[k]
				} else {
					off -= a.X[k]
				}
			}
		}
		if (strict && diag <= off) || diag < off {
			t.Fatalf("%s: row %d not diagonally dominant (%v vs %v)", name, r, diag, off)
		}
	}
	// Value symmetry.
	at := a.Transpose()
	for k := range a.I {
		if a.X[k] != at.X[k] || a.I[k] != at.I[k] {
			t.Fatalf("%s: values not symmetric", name)
		}
	}
}

func TestGeneratorsSPD(t *testing.T) {
	testSPD(t, Must(RandomSPD(200, 8, 3)), "RandomSPD")
	testSPD(t, Must(BandedSPD(200, 10, 0.5, 4)), "BandedSPD")
	testSPD(t, Must(PowerLawSPD(200, 3, 5)), "PowerLawSPD")
	testSPDStrict(t, Must(Laplacian2D(12)), "Laplacian2D", false)
	testSPDStrict(t, Must(Laplacian3D(6)), "Laplacian3D", false)
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := Must(RandomSPD(100, 6, 42)), Must(RandomSPD(100, 6, 42))
	if len(a.I) != len(b.I) {
		t.Fatal("RandomSPD not deterministic in structure")
	}
	for k := range a.X {
		if a.X[k] != b.X[k] || a.I[k] != b.I[k] {
			t.Fatal("RandomSPD not deterministic")
		}
	}
}

func TestPowerLawHasSkewedDegrees(t *testing.T) {
	a := Must(PowerLawSPD(500, 2, 11))
	maxDeg, sum := 0, 0
	for r := 0; r < a.Rows; r++ {
		d := a.P[r+1] - a.P[r]
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(a.Rows)
	if float64(maxDeg) < 4*avg {
		t.Fatalf("max degree %d not skewed vs avg %.1f", maxDeg, avg)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 20, 17, 90)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatalf("round trip changed shape: %dx%d nnz %d", b.Rows, b.Cols, b.NNZ())
	}
	for k := range a.I {
		if a.I[k] != b.I[k] || a.X[k] != b.X[k] {
			t.Fatalf("round trip changed entry %d", k)
		}
	}
}

func TestMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% comment line
3 3 4
1 1 2.0
2 1 -1.0
3 2 -1.0
3 3 2.0
`
	a, err := ReadMatrixMarket(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 6 {
		t.Fatalf("nnz = %d, want 6 after symmetric expansion", a.NNZ())
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric mirror entry missing")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	a, err := ReadMatrixMarket(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("pattern entries should default to 1")
	}
}

func TestMatrixMarketRejectsBadHeader(t *testing.T) {
	if _, err := ReadMatrixMarket(bytes.NewBufferString("%%MatrixMarket matrix array real general\n")); err == nil {
		t.Fatal("expected error for array format")
	}
	if _, err := ReadMatrixMarket(bytes.NewBufferString("garbage\n")); err == nil {
		t.Fatal("expected error for garbage header")
	}
}

func TestPermuteSymPreservesValuesUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := Must(RandomSPD(30, 4, 8))
	perm := rng.Perm(30)
	b, err := PermuteSym(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	inv := InversePerm(perm)
	for r := 0; r < 30; r++ {
		for k := a.P[r]; k < a.P[r+1]; k++ {
			c := a.I[k]
			if b.At(inv[r], inv[c]) != a.X[k] {
				t.Fatalf("permuted entry (%d,%d) mismatched", r, c)
			}
		}
	}
}

// TestPermuteSymMatchesTripletConstruction compares the counting-sort
// PermuteSym entry for entry with what it replaced: relabel every entry and
// let FromTriplets sort. Patterns are unsymmetric with empty rows and empty
// columns; sizes start at the empty matrix.
func TestPermuteSymMatchesTripletConstruction(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		var ts []Triplet
		for r := 0; r < n; r++ {
			if rng.Intn(4) == 0 {
				continue // empty row
			}
			for k := rng.Intn(2 * (1 + n/8)); k > 0; k-- {
				ts = append(ts, Triplet{r, rng.Intn(n), rng.NormFloat64()})
			}
		}
		a := Must(FromTriplets(n, n, ts))
		perm := rng.Perm(n)
		got, err := PermuteSym(a, perm)
		if err != nil {
			t.Fatal(err)
		}
		inv := InversePerm(perm)
		var rel []Triplet
		for r := 0; r < n; r++ {
			for k := a.P[r]; k < a.P[r+1]; k++ {
				rel = append(rel, Triplet{inv[r], inv[a.I[k]], a.X[k]})
			}
		}
		want := Must(FromTriplets(n, n, rel))
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(got.P, want.P) || !slices.Equal(got.I, want.I) || !slices.Equal(got.X, want.X) {
			t.Fatalf("seed %d (n=%d, nnz=%d): PermuteSym differs from the triplet construction", seed, n, a.NNZ())
		}
	}
}

// TestPermuteSymAllocs keeps the reorder path free of per-entry garbage: the
// permuted matrix, the inverse, the validity bitmap and the counting-sort
// scratch are all there is.
func TestPermuteSymAllocs(t *testing.T) {
	a := Must(RandomSPD(2000, 8, 5))
	perm := rand.New(rand.NewSource(1)).Perm(a.Rows)
	if got := testing.AllocsPerRun(5, func() {
		if _, err := PermuteSym(a, perm); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Fatalf("%.0f allocs per PermuteSym, want <= 10", got)
	}
}

func TestPermuteSymRejectsInvalid(t *testing.T) {
	a := Must(Laplacian2D(3))
	if _, err := PermuteSym(a, []int{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	bad := make([]int, 9)
	if _, err := PermuteSym(a, bad); err == nil {
		t.Fatal("expected duplicate-entry error")
	}
}

func TestInversePermRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Perm(1 + rng.Intn(50))
		q := InversePerm(InversePerm(p))
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteUnpermuteVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := RandomVec(40, 17)
	p := rng.Perm(40)
	y := UnpermuteVec(PermuteVec(x, p), p)
	if MaxAbsDiff(x, y) != 0 {
		t.Fatal("permute/unpermute not inverse")
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("norm2 = %v", Norm2(x))
	}
	if Dot(x, []float64{1, 2}) != 11 {
		t.Fatal("dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatal("axpy wrong")
	}
	if d := Sub([]float64{5, 5}, x); d[0] != 2 || d[1] != 1 {
		t.Fatal("sub wrong")
	}
	if RelErr([]float64{10, 0}, []float64{10.1, 0}) > 0.011 {
		t.Fatal("relerr wrong scale")
	}
}

func TestAtAbsentIsZero(t *testing.T) {
	a, _ := FromTriplets(4, 4, []Triplet{{1, 2, 5}})
	if a.At(0, 0) != 0 || a.At(1, 2) != 5 || a.At(3, 3) != 0 {
		t.Fatal("At lookup wrong")
	}
}

func TestSizeFootprint(t *testing.T) {
	a := Must(Laplacian2D(5))
	if a.Size() != 2*a.NNZ()+a.Rows+1 {
		t.Fatalf("size = %d", a.Size())
	}
	c := a.ToCSC()
	if c.Size() != 2*c.NNZ()+c.Cols+1 {
		t.Fatalf("csc size = %d", c.Size())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Must(Laplacian2D(3))
	b := a.Clone()
	b.X[0] = 99
	if a.X[0] == 99 {
		t.Fatal("clone shares value storage")
	}
	c := a.ToCSC()
	d := c.Clone()
	d.X[0] = 98
	if c.X[0] == 98 {
		t.Fatal("csc clone shares value storage")
	}
}

// lowerAppend is the per-entry append construction Lower replaced, kept as
// the entry-for-entry reference.
func lowerAppend(a *CSR) *CSR {
	l := &CSR{Rows: a.Rows, Cols: a.Cols, P: make([]int, a.Rows+1)}
	for r := 0; r < a.Rows; r++ {
		hasDiag := false
		for k := a.P[r]; k < a.P[r+1] && a.I[k] <= r; k++ {
			l.I = append(l.I, a.I[k])
			l.X = append(l.X, a.X[k])
			hasDiag = hasDiag || a.I[k] == r
		}
		if !hasDiag {
			l.I = append(l.I, r)
			l.X = append(l.X, 1)
		}
		l.P[r+1] = len(l.I)
	}
	return l
}

// holeyPattern is a random square pattern in which some rows have no diagonal,
// some nothing left or right of it, and some no entries at all.
func holeyPattern(t *testing.T, n int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ts []Triplet
	for r := 0; r < n; r++ {
		if rng.Intn(8) == 0 {
			continue
		}
		if rng.Intn(3) != 0 {
			ts = append(ts, Triplet{r, r, 2 + rng.Float64()})
		}
		for k := rng.Intn(5); k > 0; k-- {
			ts = append(ts, Triplet{r, rng.Intn(n), rng.NormFloat64()})
		}
	}
	a, err := FromTriplets(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestLowerUpperCountThenFill: the lower triangle is allocated once at its
// final length — no append slack kept alive, a handful of allocations however
// large the matrix — and equals the old per-entry construction entry for
// entry, inserted diagonals included.
func TestLowerUpperCountThenFill(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := holeyPattern(t, 40+int(seed)*13, seed)
		got, want := a.Lower(), lowerAppend(a)
		if !reflect.DeepEqual(got.P, want.P) || !reflect.DeepEqual(got.I, want.I) || !reflect.DeepEqual(got.X, want.X) {
			t.Fatalf("seed %d: Lower differs from the append construction", seed)
		}
		if cap(got.I) != len(got.I) || cap(got.X) != len(got.X) {
			t.Fatalf("seed %d: Lower keeps slack: I %d/%d, X %d/%d", seed,
				len(got.I), cap(got.I), len(got.X), cap(got.X))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: Lower: %v", seed, err)
		}
	}
	a := holeyPattern(t, 3000, 99)
	if n := testing.AllocsPerRun(5, func() { a.Lower() }); n > 4 {
		t.Errorf("Lower: %.0f allocations, want <= 4 (struct, P, I, X)", n)
	}
}

// TestFormsDeriveOnceOnFirstUse: nothing is derived before it is asked for
// (over a header without arrays any derivation would panic), and every later
// call returns the same arrays and sums.
func TestFormsDeriveOnceOnFirstUse(t *testing.T) {
	NewForms(&CSR{Rows: 3, Cols: 3})
	a := Must(RandomSPD(200, 4, 3))
	f := NewForms(a)
	l, c := f.Lower(), f.CSC()
	if !reflect.DeepEqual(l, a.Lower()) || !reflect.DeepEqual(c, a.ToCSC()) {
		t.Fatal("memoized forms differ from Lower()/ToCSC()")
	}
	if f.Lower() != l || f.CSC() != c {
		t.Fatal("forms derived twice")
	}
	if f.Sum() != ValueSum(a.X) || f.LowerSum() != ValueSum(l.X) || f.CSCSum() != ValueSum(c.X) {
		t.Fatal("memoized checksums differ from ValueSum of the forms")
	}
	if ValueSum(a.X) == ValueSum(a.X[:len(a.X)-1]) || ValueSum(nil) == ValueSum([]float64{0}) {
		t.Fatal("ValueSum ignores length")
	}
}

// TestFormsCSCSharesSymmetricArrays: the CSC form of every generator's matrix,
// natural and symmetrically permuted, is the matrix's own P, I and X. It is a
// copy equal to ToCSC when one value differs from its mirror by one ulp, when
// one is -0 and its mirror +0, when the pattern is not symmetric, and when the
// matrix is not square.
func TestFormsCSCSharesSymmetricArrays(t *testing.T) {
	shares := func(a *CSR) bool {
		c := NewForms(a).CSC()
		if !reflect.DeepEqual(c, a.ToCSC()) {
			t.Fatalf("%dx%d: CSC form differs from ToCSC", a.Rows, a.Cols)
		}
		same := &c.P[0] == &a.P[0]
		if len(a.I) > 0 && (&c.I[0] == &a.I[0]) != same || len(a.X) > 0 && (&c.X[0] == &a.X[0]) != same {
			t.Fatalf("%dx%d: CSC shares some of A's arrays but not all", a.Rows, a.Cols)
		}
		return same
	}
	gens := map[string]*CSR{
		"lap2d":    Must(Laplacian2D(9)),
		"lap3d":    Must(Laplacian3D(5)),
		"random":   Must(RandomSPD(300, 5, 7)),
		"band":     Must(BandedSPD(300, 6, 0.5, 8)),
		"powerlaw": Must(PowerLawSPD(300, 4, 9)),
	}
	rng := rand.New(rand.NewSource(11))
	for name, a := range gens {
		perm := rng.Perm(a.Rows)
		pa, err := PermuteSym(a, perm)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*CSR{a, pa} {
			if !shares(m) {
				t.Fatalf("%s: the CSC form of a symmetric matrix is a copy", name)
			}
		}
	}

	// off returns the position of an off-diagonal entry (r, c) and of its
	// mirror (c, r).
	off := func(a *CSR) (k, m int) {
		for r := 0; r < a.Rows; r++ {
			for k := a.P[r]; k < a.P[r+1]; k++ {
				if c := a.I[k]; c != r {
					for m := a.P[c]; m < a.P[c+1]; m++ {
						if a.I[m] == r {
							return k, m
						}
					}
				}
			}
		}
		t.Fatal("no off-diagonal entry")
		return 0, 0
	}
	ulp := gens["random"].Clone()
	k, _ := off(ulp)
	ulp.X[k] = math.Nextafter(ulp.X[k], math.Inf(1))
	zero := gens["lap2d"].Clone()
	k, m := off(zero)
	zero.X[k], zero.X[m] = 0, math.Copysign(0, -1)
	var ts []Triplet
	for r := 0; r < 20; r++ {
		ts = append(ts, Triplet{Row: r, Col: r, Val: 2})
	}
	asym := Must(FromTriplets(20, 20, append(ts, Triplet{Row: 7, Col: 3, Val: 1})))
	wide := Must(FromTriplets(20, 21, append(ts, Triplet{Row: 3, Col: 20, Val: 1})))
	for name, a := range map[string]*CSR{"one ulp": ulp, "-0 and +0": zero, "asymmetric pattern": asym, "non-square": wide} {
		if shares(a) {
			t.Fatalf("%s: the CSC form shares the matrix's arrays", name)
		}
	}
}

// TestPatternSymmetricMatchesTranspose: the in-place cursor check
// (Symmetric) agrees with comparing the matrix against its transpose, pattern
// alone and with values, on symmetric patterns and on each with one entry
// added or dropped.
func TestPatternSymmetricMatchesTranspose(t *testing.T) {
	viaTranspose := func(a *CSR) bool {
		tr := a.Transpose()
		return slices.Equal(tr.P, a.P) && slices.Equal(tr.I, a.I)
	}
	valuesViaTranspose := func(a *CSR) bool {
		return viaTranspose(a) && slices.Equal(a.Transpose().X, a.X)
	}
	rng := rand.New(rand.NewSource(5))
	seen := map[bool]bool{}
	for _, base := range []*CSR{
		Must(Laplacian2D(7)), Must(RandomSPD(60, 4, 2)), Must(PowerLawSPD(80, 3, 3)),
	} {
		variants := []*CSR{base}
		for i := 0; i < 20; i++ {
			var ts []Triplet
			for r := 0; r < base.Rows; r++ {
				for p := base.P[r]; p < base.P[r+1]; p++ {
					ts = append(ts, Triplet{Row: r, Col: base.I[p], Val: 1})
				}
			}
			if i%2 == 0 {
				ts = append(ts, Triplet{Row: rng.Intn(base.Rows), Col: rng.Intn(base.Rows), Val: 1})
			} else {
				k := rng.Intn(len(ts))
				ts = append(ts[:k], ts[k+1:]...)
			}
			variants = append(variants, Must(FromTriplets(base.Rows, base.Cols, ts)))
		}
		for i, a := range variants {
			if got, want := a.Symmetric(make([]int, a.Rows), false), viaTranspose(a); got != want {
				t.Fatalf("variant %d of %d rows: Symmetric %v, the transpose says %v", i, a.Rows, got, want)
			} else {
				seen[got] = true
			}
			if a.Symmetric(make([]int, a.Rows), true) != valuesViaTranspose(a) {
				t.Fatalf("variant %d: Symmetric with values disagrees with the transpose", i)
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("the variants cover only symmetric = %v", seen)
	}
}
