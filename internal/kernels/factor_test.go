package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
)

// factorHash is the SHA-256 prefix of the bit patterns of x.
func factorHash(x []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// arrowSPD is an n-by-n SPD matrix whose first and last rows and columns are
// dense, with a tridiagonal band in between: column 0 and row 0 are long
// sources for every pivot, and the last row and column are long targets.
func arrowSPD(n int) *sparse.CSR {
	var ts []sparse.Triplet
	rowAbs := make([]float64, n)
	add := func(r, c int, v float64) {
		ts = append(ts, sparse.Triplet{Row: r, Col: c, Val: v}, sparse.Triplet{Row: c, Col: r, Val: v})
		rowAbs[r] -= v
		rowAbs[c] -= v
	}
	for i := 1; i < n; i++ {
		add(i, 0, -0.25-float64(i%7)/16)
		if i < n-1 {
			add(n-1, i, -0.5-float64(i%5)/16)
		}
		if i > 1 && i < n-1 {
			add(i, i-1, -1)
		}
	}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: rowAbs[i] + 1})
	}
	return sparse.Must(sparse.FromTriplets(n, n, ts))
}

// factorPattern builds one of the matrices the factor goldens and benchmarks
// run on: a suite spec, nested-dissection reordered, or the arrow.
func factorPattern(tb testing.TB, spec string) *sparse.CSR {
	tb.Helper()
	if spec == "arrow:300" {
		return arrowSPD(300)
	}
	a, err := suite.Parse(spec, true)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// goldenFactors are factorHash of L.X after SpIC0-CSC and of A.X after
// SpILU0-CSR, per pattern. The patterns cover both search directions (hub
// pivots of the power law, the arrow's dense row, column and last row) and
// the plain merge (the 3D Laplacian).
var goldenFactors = map[string][2]string{
	"pow:4000:6": {"920809bd508910f8", "e934f21bcb4f89f0"},
	"lap3d:12":   {"8ebc78ca259f51bc", "a3ad9916b697b85b"},
	"arrow:300":  {"7b7a2de3a8826d7f", "7e09ea5120f76cba"},
}

// TestFactorGolden pins the factors bit for bit, in ascending order and in
// one dependency-respecting shuffle: the order in which a body intersects
// the source and target runs must not change a single bit.
func TestFactorGolden(t *testing.T) {
	for spec, want := range goldenFactors {
		a := factorPattern(t, spec)
		ic := NewSpIC0CSC(a.Lower().ToCSC())
		ilu, err := NewSpILU0CSR(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for f, c := range []struct {
			k Kernel
			x []float64
		}{{ic, ic.L.X}, {ilu, ilu.A.X}} {
			if err := RunSeq(c.k); err != nil {
				t.Fatalf("%s %s: %v", spec, c.k.Name(), err)
			}
			got := factorHash(c.x)
			if got != want[f] {
				t.Errorf("%s %s: factor %s, golden %q", spec, c.k.Name(), got, want[f])
			}
			runTopoShuffled(t, c.k, 7)
			if sh := factorHash(c.x); sh != got {
				t.Errorf("%s %s: shuffled order gives %s, ascending %s", spec, c.k.Name(), sh, got)
			}
		}
	}
}

// BenchmarkFactor times one sequential factorization (Prepare included) per
// pattern and kernel.
func BenchmarkFactor(b *testing.B) {
	for _, spec := range []string{"pow:8000:6", "lap3d:20", "lap2d:100"} {
		a := factorPattern(b, spec)
		ilu, err := NewSpILU0CSR(a.Clone())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []Kernel{NewSpIC0CSC(a.Lower().ToCSC()), ilu} {
			b.Run(spec+"/"+k.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := RunSeq(k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// hubSPD is an n-by-n SPD matrix with about deg random off-diagonals per row
// plus hubs rows and columns that each reach a random 30–90% of the others.
func hubSPD(n, deg, hubs int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	var ts []sparse.Triplet
	rowAbs := make([]float64, n)
	add := func(r, c int) {
		if r == c {
			return
		}
		v := -0.1 - rng.Float64()
		ts = append(ts, sparse.Triplet{Row: r, Col: c, Val: v}, sparse.Triplet{Row: c, Col: r, Val: v})
		rowAbs[r] -= v
		rowAbs[c] -= v
	}
	for r := 0; r < n; r++ {
		for d := 0; d < deg; d++ {
			add(r, rng.Intn(n))
		}
	}
	for h := 0; h < hubs; h++ {
		hub, reach := rng.Intn(n), 0.3+0.6*rng.Float64()
		for r := 0; r < n; r++ {
			if rng.Float64() < reach {
				add(hub, r)
			}
		}
	}
	for r := 0; r < n; r++ {
		ts = append(ts, sparse.Triplet{Row: r, Col: r, Val: rowAbs[r] + 1})
	}
	// Duplicates sum, so every row stays strictly diagonally dominant.
	return sparse.Must(sparse.FromTriplets(n, n, ts))
}

// mergeIC0 is SpIC0CSC.Run with the two-pointer merge for every pivot: the
// oracle the adaptive intersection must match bit for bit.
func mergeIC0(k *SpIC0CSC, j int) {
	l := k.L
	jStart, jEnd := l.P[j], l.P[j+1]
	for _, ref := range k.reads(j) {
		ljk := l.X[ref.idx]
		if ljk == 0 {
			continue
		}
		kp, jp, kEnd := ref.idx, jStart, l.P[ref.col+1]
		for kp < kEnd && jp < jEnd {
			ri, rj := l.I[kp], l.I[jp]
			switch {
			case ri == rj:
				l.X[jp] -= l.X[kp] * ljk
				kp++
				jp++
			case ri < rj:
				kp++
			default:
				jp++
			}
		}
	}
	d := math.Sqrt(l.X[jStart])
	l.X[jStart] = d
	for p := jStart + 1; p < jEnd; p++ {
		l.X[p] /= d
	}
}

// mergeILU0 is SpILU0CSR.Run with the two-pointer merge for every pivot.
func mergeILU0(k *SpILU0CSR, i int) {
	a := k.A
	iEnd := a.P[i+1]
	for p := a.P[i]; p < iEnd && a.I[p] < i; p++ {
		kk := a.I[p]
		lik := a.X[p] / a.X[k.diag[kk]]
		a.X[p] = lik
		if lik == 0 {
			continue
		}
		kp, ip, kEnd := k.diag[kk]+1, p+1, a.P[kk+1]
		for kp < kEnd && ip < iEnd {
			ck, ci := a.I[kp], a.I[ip]
			switch {
			case ck == ci:
				a.X[ip] -= lik * a.X[kp]
				kp++
				ip++
			case ck < ci:
				kp++
			default:
				ip++
			}
		}
	}
}

// sameBits returns the first position where x and y differ in bits, or -1.
func sameBits(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// FuzzFactor factors a random pattern with hubs, whose pivots mix short and
// long source and target runs, and compares SpIC0-CSC and SpILU0-CSR, in
// ascending and in a shuffled dependency order, bit for bit with the
// merge-only bodies.
func FuzzFactor(f *testing.F) {
	f.Add(uint16(300), uint8(3), uint8(2), int64(1))
	f.Add(uint16(40), uint8(0), uint8(1), int64(2))
	f.Add(uint16(500), uint8(6), uint8(5), int64(3))
	f.Add(uint16(120), uint8(2), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, size uint16, deg, hubs uint8, seed int64) {
		a := hubSPD(1+int(size)%600, int(deg)%8, int(hubs)%6, seed)
		ic, icRef := NewSpIC0CSC(a.Lower().ToCSC()), NewSpIC0CSC(a.Lower().ToCSC())
		ilu, err := NewSpILU0CSR(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		iluRef, _ := NewSpILU0CSR(a.Clone())
		for j := 0; j < a.Rows; j++ {
			mergeIC0(icRef, j)
			mergeILU0(iluRef, j)
		}
		for _, c := range []struct {
			k       Kernel
			got, rf []float64
		}{{ic, ic.L.X, icRef.L.X}, {ilu, ilu.A.X, iluRef.A.X}} {
			if err := RunSeq(c.k); err != nil {
				t.Fatalf("%s: %v", c.k.Name(), err)
			}
			if p := sameBits(c.got, c.rf); p >= 0 {
				t.Fatalf("%s: entry %d is %v, merge gives %v", c.k.Name(), p, c.got[p], c.rf[p])
			}
			runTopoShuffled(t, c.k, seed)
			if p := sameBits(c.got, c.rf); p >= 0 {
				t.Fatalf("%s shuffled: entry %d is %v, merge gives %v", c.k.Name(), p, c.got[p], c.rf[p])
			}
		}
	})
}
