package kernels

import (
	"fmt"
	"math"
	"math/bits"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// SpIC0CSC computes the incomplete Cholesky factor with zero fill-in
// (L*L' ~= A on the pattern of tril(A)), one column per iteration,
// left-looking. Iteration j reads already-factored columns k < j with
// L[j][k] != 0 and writes only column j, so a DAG-respecting schedule is
// race-free without atomics.
type SpIC0CSC struct {
	// L holds tril(A) values on entry to Prepare and the factor after the
	// last Run. Row indices ascend within a column, so the diagonal comes
	// first.
	L *sparse.CSC
	// A0 keeps the original tril(A) values so the kernel can be replayed;
	// nil once DisableRestore hands the replay to an upstream kernel.
	A0 []float64

	// refs[refOff[j]:refOff[j+1]] lists (column k < j, value index p) of
	// every entry L[j][k]: the columns iteration j must read (reads).
	refs   []rowRef
	refOff []int
	flops  int64
}

type rowRef struct{ col, idx int }

// NewSpIC0CSC builds the kernel from the lower-triangular CSC pattern l
// (typically tril(A) of an SPD matrix). The values of l are copied as the
// replayable input. The per-row read lists are one flat array and one offset
// array, not n slices; DAG takes its adjacency straight from the
// strictly-lower column pattern (dag.FromLowerCSC — no edge list, no sort).
func NewSpIC0CSC(l *sparse.CSC) *SpIC0CSC {
	n := l.Cols
	k := &SpIC0CSC{L: l, A0: append([]float64(nil), l.X...), refOff: make([]int, n+1)}

	// Count strictly-lower refs per row (refOff[i+1]), prefix-sum into start
	// offsets, then fill in column-scan order with a copy of the starts as
	// the row cursors.
	off := k.refOff
	for j := 0; j < n; j++ {
		for p := l.P[j]; p < l.P[j+1]; p++ {
			if i := l.I[p]; i > j {
				off[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	k.refs = make([]rowRef, off[n])
	curp := getInts(n)
	defer putInts(curp)
	cur := *curp
	copy(cur, off[:n])
	for j := 0; j < n; j++ {
		for p := l.P[j]; p < l.P[j+1]; p++ {
			if i := l.I[p]; i > j {
				k.refs[cur[i]] = rowRef{j, p}
				cur[i]++
			}
		}
	}
	k.flops = k.countFlops()
	return k
}

// reads lists the (column, value index) refs of row j: the columns iteration
// j reads.
func (k *SpIC0CSC) reads(j int) []rowRef { return k.refs[k.refOff[j]:k.refOff[j+1]] }

func (k *SpIC0CSC) Name() string    { return "SpIC0-CSC" }
func (k *SpIC0CSC) Iterations() int { return k.L.Cols }

// DAG builds the dependence DAG from the strictly-lower column pattern. The
// weight grows with the update work: column length (set by FromLowerCSC)
// plus the lengths of the columns the iteration reads.
func (k *SpIC0CSC) DAG() *dag.Graph {
	l := k.L
	g := dag.FromLowerCSC(l)
	for j := 0; j < l.Cols; j++ {
		for _, ref := range k.reads(j) {
			g.W[j] += l.P[ref.col+1] - l.P[ref.col]
		}
	}
	return g
}

// Prepare restores the original tril(A) values into L, unless an upstream
// kernel owns the replay (DisableRestore).
func (k *SpIC0CSC) Prepare() {
	if k.A0 != nil {
		copy(k.L.X, k.A0)
	}
}

// DisableRestore makes Prepare a no-op and releases the snapshot: used when
// a fused upstream kernel (e.g. DSCAL writing in place) fully rewrites this
// kernel's input on every run, so restoring here would clobber the chain.
func (k *SpIC0CSC) DisableRestore() { k.A0 = nil }

// Run factors column j:
//
//	for every k < j with L[j][k] != 0:  L[i][j] -= L[i][k]*L[j][k]  (i >= j)
//	L[j][j] = sqrt(L[j][j]); L[i][j] /= L[j][j] for i > j
func (k *SpIC0CSC) Run(j int) {
	l := k.L
	jStart, jEnd := l.P[j], l.P[j+1]
	for _, ref := range k.reads(j) {
		ljk := l.X[ref.idx]
		if ljk == 0 {
			continue
		}
		// Merge column k (rows >= j) into column j on the shared pattern.
		kp := ref.idx // l.I[ref.idx] == j, start of the overlap
		jp := jStart
		kEnd := l.P[ref.col+1]
		if kEnd-kp+jEnd-jp > 32 {
			if intersectSkewed(l.I, l.X, kp, kEnd, jp, jEnd, ljk) {
				continue
			}
		}
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
	dd := l.X[jStart]
	// !(dd > 0) catches a zero, negative and NaN pivot in one compare; an
	// infinite pivot is equally fatal (sqrt(+Inf) poisons the column). Any of
	// them means the input was not SPD on this pattern: report a typed
	// breakdown instead of letting NaN spread through the factor.
	if !(dd > 0) || math.IsInf(dd, 0) {
		breakdown(k.Name(), j, "non-positive pivot %v (matrix not SPD on this pattern?)", dd)
	}
	d := math.Sqrt(dd)
	l.X[jStart] = d
	for p := jStart + 1; p < jEnd; p++ {
		l.X[p] /= d
	}
}

// countFlops bounds the multiply-adds of a factorization by the shorter of
// the two runs each pivot intersects (the body performs one per shared row,
// and finding them costs no flops), plus the sqrt and the scaling.
func (k *SpIC0CSC) countFlops() int64 {
	var f int64
	for j := 0; j < k.L.Cols; j++ {
		nt := k.L.P[j+1] - k.L.P[j]
		for _, ref := range k.reads(j) {
			f += 2 * int64(min(k.L.P[ref.col+1]-ref.idx, nt))
		}
		f += int64(k.L.P[j+1]-k.L.P[j]) + 1 // sqrt + scale
	}
	return f
}

func (k *SpIC0CSC) Footprint() []Var {
	return []Var{matVar(k.L.X, k.L.Size())}
}

func (k *SpIC0CSC) Flops() int64 { return k.flops }

// SpILU0CSR computes the incomplete LU factorization with zero fill-in
// (L*U ~= A on the pattern of A), one row per iteration, using the standard
// IKJ formulation. Iteration i reads already-factored rows k < i with
// A[i][k] != 0 and writes only row i.
type SpILU0CSR struct {
	// A holds the input values on entry to Prepare and the combined LU
	// factor (unit-diagonal L strictly below, U on and above) after the
	// last Run.
	A *sparse.CSR
	// A0 keeps the original values so the kernel can be replayed; nil once
	// DisableRestore hands the replay to an upstream kernel.
	A0 []float64

	diag  []int // index of the diagonal entry in each row
	flops int64
}

// NewSpILU0CSR builds the kernel from a square matrix with a full diagonal;
// a missing diagonal entry is reported as an error rather than a panic (the
// matrix is caller input, not a programming invariant). The strictly-lower
// entries of A are exactly the dependence edges, so DAG builds from
// dag.FromLowerCSR directly (no edge list, no sort); the base row-length
// weights it assigns are then augmented with the lengths of the rows each
// iteration reads.
func NewSpILU0CSR(a *sparse.CSR) (*SpILU0CSR, error) {
	n := a.Rows
	k := &SpILU0CSR{A: a, A0: append([]float64(nil), a.X...), diag: make([]int, n)}
	for i := 0; i < n; i++ {
		k.diag[i] = -1
		for p := a.P[i]; p < a.P[i+1] && a.I[p] <= i; p++ {
			if a.I[p] == i {
				k.diag[i] = p
			}
		}
		if k.diag[i] < 0 {
			return nil, fmt.Errorf("kernels: SpILU0 requires a full diagonal, row %d has none", i)
		}
	}
	k.flops = k.countFlops()
	return k, nil
}

func (k *SpILU0CSR) Name() string    { return "SpILU0-CSR" }
func (k *SpILU0CSR) Iterations() int { return k.A.Rows }

// DAG builds the dependence DAG from the strictly-lower pattern; each row's
// weight is its length plus the lengths of the rows it reads.
func (k *SpILU0CSR) DAG() *dag.Graph {
	a := k.A
	g := dag.FromLowerCSR(a)
	for i := 0; i < a.Rows; i++ {
		for p := a.P[i]; p < a.P[i+1] && a.I[p] < i; p++ {
			j := a.I[p]
			g.W[i] += a.P[j+1] - a.P[j]
		}
	}
	return g
}

// Prepare restores the original matrix values, unless an upstream kernel
// owns the replay (DisableRestore).
func (k *SpILU0CSR) Prepare() {
	if k.A0 != nil {
		copy(k.A.X, k.A0)
	}
}

// DisableRestore makes Prepare a no-op and releases the snapshot: used when
// a fused upstream kernel fully rewrites this kernel's input on every run.
func (k *SpILU0CSR) DisableRestore() { k.A0 = nil }

// Run factors row i (IKJ): for each k < i in row i's pattern (ascending),
// A[i][k] /= A[k][k], then A[i][j] -= A[i][k]*A[k][j] for every j > k
// present in both row k and row i.
func (k *SpILU0CSR) Run(i int) {
	a := k.A
	iEnd := a.P[i+1]
	for p := a.P[i]; p < iEnd && a.I[p] < i; p++ {
		kk := a.I[p]
		pivot := a.X[k.diag[kk]]
		// pivot-pivot != 0 catches Inf and NaN in one compare alongside the
		// zero check: a dead pivot is a breakdown, not a silent Inf row.
		if pivot == 0 || pivot-pivot != 0 {
			breakdown(k.Name(), i, "unusable pivot %v at column %d", pivot, kk)
		}
		lik := a.X[p] / pivot
		a.X[p] = lik
		if lik == 0 {
			continue
		}
		// Merge row k entries right of the diagonal with row i entries
		// right of column kk.
		kp := k.diag[kk] + 1
		ip := p + 1
		kEnd := a.P[kk+1]
		if kEnd-kp+iEnd-ip > 32 {
			if intersectSkewed(a.I, a.X, kp, kEnd, ip, iEnd, lik) {
				continue
			}
		}
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

// countFlops bounds the flops of a factorization: per pivot one division and
// a multiply-add for each column the pivot row shares with row i, of which
// there are at most as many as the shorter of the two runs.
func (k *SpILU0CSR) countFlops() int64 {
	var f int64
	for i := 0; i < k.A.Rows; i++ {
		iEnd := k.A.P[i+1]
		for p := k.A.P[i]; p < iEnd && k.A.I[p] < i; p++ {
			kk := k.A.I[p]
			f += 1 + 2*int64(min(k.A.P[kk+1]-k.diag[kk]-1, iEnd-p-1))
		}
	}
	return f
}

func (k *SpILU0CSR) Footprint() []Var {
	return []Var{matVar(k.A.X, k.A.Size())}
}

func (k *SpILU0CSR) Flops() int64 { return k.flops }

// SplitILU extracts the unit-diagonal L and the U factors from a completed
// SpILU0CSR, for use by downstream triangular solves.
func (k *SpILU0CSR) SplitILU() (l, u *sparse.CSR) {
	a := k.A
	l = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, P: make([]int, a.Rows+1)}
	u = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, P: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for p := a.P[i]; p < a.P[i+1]; p++ {
			if a.I[p] < i {
				l.I = append(l.I, a.I[p])
				l.X = append(l.X, a.X[p])
			} else {
				u.I = append(u.I, a.I[p])
				u.X = append(u.X, a.X[p])
			}
		}
		l.I = append(l.I, i)
		l.X = append(l.X, 1)
		l.P[i+1] = len(l.I)
		u.P[i+1] = len(u.I)
	}
	return l, u
}

// intersectSkewed applies x[t] -= x[s]*m to every source position s in
// [s0, s1) and target position t in [t0, t1) that hold the same index, when
// one run is so much shorter than the other that searching each of its
// entries in the longer one beats walking both: nt·bits.Len(ns) < ns searches
// the target's entries in the source, ns·bits.Len(nt) < nt the source's in
// the target. When neither holds it touches nothing and returns false, and
// the caller merges. Both runs ascend in idx and their values lie in
// different rows (columns), so each target gets at most one update and the
// order the updates come in cannot change a bit.
func intersectSkewed(idx []int, x []float64, s0, s1, t0, t1 int, m float64) bool {
	ns, nt := s1-s0, t1-t0
	switch {
	case nt*bits.Len(uint(ns)) < ns:
		for t := t0; t < t1 && s0 < s1; t++ {
			s0 = searchIdx(idx, s0, s1, idx[t])
			if s0 < s1 && idx[s0] == idx[t] {
				x[t] -= x[s0] * m
				s0++
			}
		}
	case ns*bits.Len(uint(nt)) < nt:
		for s := s0; s < s1 && t0 < t1; s++ {
			t0 = searchIdx(idx, t0, t1, idx[s])
			if t0 < t1 && idx[t0] == idx[s] {
				x[t0] -= x[s] * m
				t0++
			}
		}
	default:
		return false
	}
	return true
}

// searchIdx returns the first position p in [lo, hi) with idx[p] >= v, or hi.
func searchIdx(idx []int, lo, hi, v int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
