// Package sparsefusion is a Go implementation of sparse fusion — "Runtime
// Composition of Iterations for Fusing Loop-carried Sparse Dependence"
// (Cheshmi, Strout, Mehri Dehnavi; SC '23) — an inspector-executor technique
// that fuses consecutive sparse matrix kernels, at least one of which has
// loop-carried dependencies, into a single parallel schedule optimized for
// load balance and data locality.
//
// The public API works at three levels:
//
//   - Combination operations (NewOperation): the six kernel pairs of the
//     paper's Table 1 — TRSV+TRSV, DSCAL+ILU0, TRSV+SpMV, IC0+TRSV,
//     ILU0+TRSV and DSCAL+IC0 — inspected once (ICO scheduling) and executed
//     repeatedly while the sparsity pattern is unchanged.
//   - The Gauss-Seidel solver (NewGaussSeidel), which fuses more than two
//     loops by unrolling sweeps (paper section 4.3).
//   - Fusion as a service: a content-addressed ScheduleCache that amortizes
//     inspection across operations, processes (disk tier) and concurrent
//     tenants (singleflight); per-client Sessions that execute one shared
//     inspected operation concurrently; and a Server that bounds how many
//     fused executions run at once.
//
// The schedulers, kernels and runtime live in internal/ packages; see
// DESIGN.md for the full inventory.
package sparsefusion

import (
	"strings"
	"sync"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/order"
	"sparsefusion/internal/sparse"
)

// Matrix is an immutable sparse matrix handle in CSR storage. What operations
// derive from the matrix alone, it derives once and keeps for as long as the
// handle lives: the lower triangle, the CSC form and their value checksums
// (forms), and the cache keys of the option sets it has been opened with
// (keys). Every NewOperation over one handle shares them, so handles are
// passed by pointer only.
type Matrix struct {
	csr   *sparse.CSR
	forms *sparse.Forms

	mu   sync.Mutex
	keys map[keyParams]cache.Key
}

// keyParams is what varies of cache.Params in comparable form (the chain's
// kernel ids joined), the index of Matrix.keys. The LBC fields are always the
// paper's constants.
type keyParams struct {
	combo, threads, chainLen int
	chainKernels             string
}

func newMatrix(csr *sparse.CSR) *Matrix {
	return &Matrix{csr: csr, forms: sparse.NewForms(csr)}
}

// fingerprint is cache.Fingerprint(m.csr, p) — byte for byte, so disk tiers
// and saved schedules keep resolving — hashed on the first request for p and
// remembered: the SHA-256 walks the whole pattern, a price every open of a
// cached schedule would otherwise pay before it can look anything up.
func (m *Matrix) fingerprint(p cache.Params) cache.Key {
	id := keyParams{p.Combo, p.Threads, p.ChainLen, strings.Join(p.ChainKernels, "\x00")}
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[id]
	if !ok {
		k = cache.Fingerprint(m.csr, p)
		if m.keys == nil {
			m.keys = make(map[keyParams]cache.Key)
		}
		m.keys[id] = k
	}
	return k
}

// Entry is one coordinate-format matrix entry.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewMatrix builds a matrix from coordinate entries; duplicates are summed.
func NewMatrix(rows, cols int, entries []Entry) (*Matrix, error) {
	ts := make([]sparse.Triplet, len(entries))
	for i, e := range entries {
		ts[i] = sparse.Triplet{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	csr, err := sparse.FromTriplets(rows, cols, ts)
	if err != nil {
		return nil, err
	}
	return newMatrix(csr), nil
}

// LoadMatrixMarket reads a Matrix Market file (coordinate real/integer/
// pattern, general or symmetric), the format the SuiteSparse collection
// distributes.
func LoadMatrixMarket(path string) (*Matrix, error) {
	csr, err := sparse.ReadMatrixMarketFile(path)
	if err != nil {
		return nil, err
	}
	return newMatrix(csr), nil
}

// Laplacian2D returns the 5-point Laplacian on a k-by-k grid (SPD, n = k^2).
// k < 1 panics: grid sizes are compile-time choices, not runtime input.
func Laplacian2D(k int) *Matrix { return newMatrix(sparse.Must(sparse.Laplacian2D(k))) }

// Laplacian3D returns the 7-point Laplacian on a k^3 grid (SPD, n = k^3).
func Laplacian3D(k int) *Matrix { return newMatrix(sparse.Must(sparse.Laplacian3D(k))) }

// RandomSPD returns a random SPD matrix with about deg off-diagonal entries
// per row; deterministic in seed.
func RandomSPD(n, deg int, seed int64) *Matrix {
	return newMatrix(sparse.Must(sparse.RandomSPD(n, deg, seed)))
}

// PowerLawSPD returns an SPD matrix with a scale-free degree distribution.
func PowerLawSPD(n, deg int, seed int64) *Matrix {
	return newMatrix(sparse.Must(sparse.PowerLawSPD(n, deg, seed)))
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.csr.Rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.csr.Cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return m.csr.NNZ() }

// Reorder returns the matrix under a parallelism-exposing symmetric
// permutation (pseudo-nested dissection), this library's substitute for the
// paper's METIS preprocessing, together with the permutation
// (perm[new] = old). Vectors can be mapped with PermuteVector. On grid-like
// problems this shortens the triangular-solve critical path by several
// times, which is what the schedulers feed on.
func (m *Matrix) Reorder() (*Matrix, []int, error) {
	p, err := order.NestedDissection(m.csr, 64)
	if err != nil {
		return nil, nil, err
	}
	pa, err := sparse.PermuteSym(m.csr, p)
	if err != nil {
		return nil, nil, err
	}
	return newMatrix(pa), p, nil
}

// PermuteVector maps x into the reordered index space: result[new] =
// x[perm[new]].
func PermuteVector(x []float64, perm []int) []float64 { return sparse.PermuteVec(x, perm) }

// UnpermuteVector undoes PermuteVector.
func UnpermuteVector(x []float64, perm []int) []float64 { return sparse.UnpermuteVec(x, perm) }
