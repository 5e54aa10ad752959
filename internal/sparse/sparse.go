// Package sparse provides the compressed sparse matrix storage formats,
// builders, converters, generators and I/O that every other package in this
// repository is built on.
//
// Two storage formats are supported, mirroring the paper's kernels:
//
//   - CSR (compressed sparse row): row pointers P (len Rows+1), column
//     indices I and values X ordered row by row with ascending columns.
//   - CSC (compressed sparse column): column pointers P (len Cols+1), row
//     indices I and values X ordered column by column with ascending rows.
//
// All matrices are zero-indexed. Builders always produce sorted, duplicate-free
// index arrays; the rest of the repository relies on that invariant.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
type CSR struct {
	Rows, Cols int
	P          []int     // row pointers, len Rows+1
	I          []int     // column indices, len NNZ
	X          []float64 // values, len NNZ
}

// CSC is a sparse matrix in compressed sparse column format.
type CSC struct {
	Rows, Cols int
	P          []int     // column pointers, len Cols+1
	I          []int     // row indices, len NNZ
	X          []float64 // values, len NNZ
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.I) }

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.I) }

// Size returns the storage footprint in scalar words (indices plus values),
// used by the reuse-ratio model. It counts the value array, the index array
// and the pointer array.
func (a *CSR) Size() int { return 2*len(a.I) + len(a.P) }

// Size returns the storage footprint in scalar words (indices plus values).
func (a *CSC) Size() int { return 2*len(a.I) + len(a.P) }

// Triplet is a single coordinate-format entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets builds a CSR matrix from coordinate entries. Duplicate entries
// are summed. The result has sorted column indices within each row.
func FromTriplets(rows, cols int, ts []Triplet) (*CSR, error) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of bounds for %dx%d matrix", t.Row, t.Col, rows, cols)
		}
	}
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	a := &CSR{Rows: rows, Cols: cols, P: make([]int, rows+1)}
	for k := 0; k < len(sorted); {
		t := sorted[k]
		v := t.Val
		k++
		for k < len(sorted) && sorted[k].Row == t.Row && sorted[k].Col == t.Col {
			v += sorted[k].Val
			k++
		}
		a.I = append(a.I, t.Col)
		a.X = append(a.X, v)
		a.P[t.Row+1]++
	}
	for r := 0; r < rows; r++ {
		a.P[r+1] += a.P[r]
	}
	return a, nil
}

// Validate checks the structural invariants of a CSR matrix: monotone row
// pointers and strictly ascending in-bounds column indices per row.
func (a *CSR) Validate() error {
	if len(a.P) != a.Rows+1 {
		return fmt.Errorf("sparse: row pointer length %d, want %d", len(a.P), a.Rows+1)
	}
	// Pattern-only matrices (dependency matrices F) carry no value array.
	if a.P[0] != 0 || a.P[a.Rows] != len(a.I) || (len(a.X) != 0 && len(a.I) != len(a.X)) {
		return fmt.Errorf("sparse: inconsistent pointer/index/value lengths")
	}
	for r := 0; r < a.Rows; r++ {
		if a.P[r] > a.P[r+1] {
			return fmt.Errorf("sparse: row %d has negative length", r)
		}
		for k := a.P[r]; k < a.P[r+1]; k++ {
			if a.I[k] < 0 || a.I[k] >= a.Cols {
				return fmt.Errorf("sparse: row %d column index %d out of bounds", r, a.I[k])
			}
			if k > a.P[r] && a.I[k] <= a.I[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", r, k)
			}
		}
	}
	return nil
}

// Validate checks the structural invariants of a CSC matrix.
func (a *CSC) Validate() error {
	t := &CSR{Rows: a.Cols, Cols: a.Rows, P: a.P, I: a.I, X: a.X}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("sparse: csc: %w", err)
	}
	return nil
}

// ToCSC converts a CSR matrix to CSC form.
func (a *CSR) ToCSC() *CSC {
	b := &CSC{Rows: a.Rows, Cols: a.Cols,
		P: make([]int, a.Cols+1),
		I: make([]int, len(a.I)),
		X: make([]float64, len(a.X)),
	}
	for _, c := range a.I {
		b.P[c+1]++
	}
	for c := 0; c < a.Cols; c++ {
		b.P[c+1] += b.P[c]
	}
	next := make([]int, a.Cols)
	copy(next, b.P[:a.Cols])
	vals := len(a.X) != 0 // pattern-only matrices carry no values
	for r := 0; r < a.Rows; r++ {
		for k := a.P[r]; k < a.P[r+1]; k++ {
			c := a.I[k]
			dst := next[c]
			b.I[dst] = r
			if vals {
				b.X[dst] = a.X[k]
			}
			next[c]++
		}
	}
	return b
}

// ToCSR converts a CSC matrix to CSR form.
func (a *CSC) ToCSR() *CSR {
	// A CSC matrix is the CSR form of its transpose; converting the
	// transpose back yields row-major storage of the original.
	t := &CSR{Rows: a.Cols, Cols: a.Rows, P: a.P, I: a.I, X: a.X}
	tt := t.ToCSC()
	return &CSR{Rows: a.Rows, Cols: a.Cols, P: tt.P, I: tt.I, X: tt.X}
}

// Transpose returns the transpose of a in CSR form.
func (a *CSR) Transpose() *CSR {
	c := a.ToCSC()
	return &CSR{Rows: a.Cols, Cols: a.Rows, P: c.P, I: c.I, X: c.X}
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{Rows: a.Rows, Cols: a.Cols,
		P: append([]int(nil), a.P...),
		I: append([]int(nil), a.I...),
		X: append([]float64(nil), a.X...),
	}
	return b
}

// Clone returns a deep copy of the matrix.
func (a *CSC) Clone() *CSC {
	b := &CSC{Rows: a.Rows, Cols: a.Cols,
		P: append([]int(nil), a.P...),
		I: append([]int(nil), a.I...),
		X: append([]float64(nil), a.X...),
	}
	return b
}

// Lower returns the lower-triangular part of a (including the diagonal) in
// CSR form. Missing diagonal entries are inserted with value 1 so the result
// is always a valid triangular-solve operand. Rows are counted first and I/X
// allocated once at their final length: the result lives as long as whatever
// is built on it, so append slack would be live heap.
func (a *CSR) Lower() *CSR {
	l := &CSR{Rows: a.Rows, Cols: a.Cols, P: make([]int, a.Rows+1)}
	for r := 0; r < a.Rows; r++ {
		k := a.P[r]
		for k < a.P[r+1] && a.I[k] <= r {
			k++
		}
		n := k - a.P[r]
		if n == 0 || a.I[k-1] != r {
			n++ // the inserted diagonal
		}
		l.P[r+1] = l.P[r] + n
	}
	l.I = make([]int, l.P[a.Rows])
	l.X = make([]float64, l.P[a.Rows])
	for r := 0; r < a.Rows; r++ {
		dst, end, src := l.P[r], l.P[r+1], a.P[r]
		// With a stored diagonal the row is a's first end-dst entries and the
		// last of them is the diagonal; otherwise that slot takes the insert.
		if d := src + end - dst - 1; d >= a.P[r+1] || a.I[d] != r {
			end--
			l.I[end], l.X[end] = r, 1
		}
		copy(l.I[dst:end], a.I[src:])
		copy(l.X[dst:end], a.X[src:])
	}
	return l
}

// StrictUpper returns the strictly upper-triangular part of a in CSR form.
func (a *CSR) StrictUpper() *CSR {
	u := &CSR{Rows: a.Rows, Cols: a.Cols, P: make([]int, a.Rows+1)}
	for r := 0; r < a.Rows; r++ {
		for k := a.P[r]; k < a.P[r+1]; k++ {
			if a.I[k] > r {
				u.I = append(u.I, a.I[k])
				u.X = append(u.X, a.X[k])
			}
		}
		u.P[r+1] = len(u.I)
	}
	return u
}

// Diag returns the diagonal of a as a dense vector; absent entries are zero.
func (a *CSR) Diag() []float64 {
	d := make([]float64, min(a.Rows, a.Cols))
	for r := 0; r < a.Rows; r++ {
		for k := a.P[r]; k < a.P[r+1]; k++ {
			if a.I[k] == r {
				d[r] = a.X[k]
			}
		}
	}
	return d
}

// IsLowerTriangular reports whether every stored entry satisfies col <= row
// and every row has a diagonal entry.
func (a *CSR) IsLowerTriangular() bool {
	for r := 0; r < a.Rows; r++ {
		hasDiag := false
		for k := a.P[r]; k < a.P[r+1]; k++ {
			if a.I[k] > r {
				return false
			}
			if a.I[k] == r {
				hasDiag = true
			}
		}
		if !hasDiag {
			return false
		}
	}
	return true
}

// Symmetric reports whether a is its own transpose: in pattern, and with
// values set, also bit for bit in value. It is one pass that builds no
// transpose: cursor (at least a.Rows ints, overwritten) walks every row in
// place as a column of the transpose, so visiting rows in order, entry (r, c)
// must be the next unvisited entry of row c, and with values set hold the
// same bits. Every entry then pairs with one of the transpose's, and with the
// counts equal none is left over. A matrix with values that passes is exactly
// what ToCSC would build from it, array for array. A non-square matrix is not
// symmetric.
func (a *CSR) Symmetric(cursor []int, values bool) bool {
	if a.Rows != a.Cols {
		return false
	}
	values = values && len(a.X) != 0
	cur := cursor[:a.Rows]
	copy(cur, a.P)
	for r := 0; r < a.Rows; r++ {
		for k := a.P[r]; k < a.P[r+1]; k++ {
			c := a.I[k]
			t := cur[c]
			if t == a.P[c+1] || a.I[t] != r || values && math.Float64bits(a.X[t]) != math.Float64bits(a.X[k]) {
				return false
			}
			cur[c]++
		}
	}
	return true
}

// At returns the value stored at (r, c), or 0 when the entry is not present.
// Stored entries of a pattern-only matrix (no value array) read as 1.
func (a *CSR) At(r, c int) float64 {
	lo, hi := a.P[r], a.P[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.I[mid] == c:
			if len(a.X) == 0 {
				return 1
			}
			return a.X[mid]
		case a.I[mid] < c:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Dense expands the matrix into a dense row-major [][]float64, for tests and
// tiny examples only.
func (a *CSR) Dense() [][]float64 {
	d := make([][]float64, a.Rows)
	for r := range d {
		d[r] = make([]float64, a.Cols)
		for k := a.P[r]; k < a.P[r+1]; k++ {
			d[r][a.I[k]] = a.X[k]
		}
	}
	return d
}
