package core

import (
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// This file holds the remaining inspector components of sparse fusion
// (paper section 2.2): the reuse-ratio metric and the domain-specific
// inter-DAG (dependency matrix F) generators for the kernel combinations of
// Table 1. Each generator mirrors the code sparse fusion would emit from
// analyzing the loop bodies, like the paper's Listing 2.

// ReuseRatio computes the paper's locality metric from two kernels' access
// footprints: 2 * common / max(total1, total2), where arrays are matched by
// storage identity. A ratio >= 1 means the kernels share more data than the
// larger of them touches privately, so interleaved packing pays off.
func ReuseRatio(k1, k2 kernels.Kernel) float64 {
	f1, f2 := k1.Footprint(), k2.Footprint()
	common, t1, t2 := 0, 0, 0
	keys1 := make(map[uintptr]struct{}, len(f1))
	for _, v := range f1 {
		t1 += v.Size
		if v.Key != 0 {
			keys1[v.Key] = struct{}{}
		}
	}
	for _, v := range f2 {
		t2 += v.Size
		if _, shared := keys1[v.Key]; shared { // zero keys are never inserted
			common += v.Size
		}
	}
	den := max(t1, t2)
	if den == 0 {
		return 0
	}
	return 2 * float64(common) / float64(den)
}

// ReuseRatioChain extends the metric to more than two loops: the minimum
// pairwise ratio over consecutive kernels, since separated packing is chosen
// as soon as any adjacent pair stops sharing data.
func ReuseRatioChain(ks []kernels.Kernel) float64 {
	if len(ks) < 2 {
		return 0
	}
	r := ReuseRatio(ks[0], ks[1])
	for i := 2; i < len(ks); i++ {
		if rr := ReuseRatio(ks[i-1], ks[i]); rr < r {
			r = rr
		}
	}
	return r
}

// FDiagonal returns the n-by-n identity-pattern dependency matrix: iteration
// i of the second loop depends on iteration i of the first. This is the F of
// the producer/consumer combinations that hand over per-row or per-column
// results: TRSV-TRSV, DSCAL-ILU0, IC0-TRSV, ILU0-TRSV and DSCAL-IC0
// (Table 1).
//
// Dependency matrices are consumed by pattern only (ICO's dependence walks,
// Validate, dag.JointChain), so this and the other F builders allocate no
// value arrays.
func FDiagonal(n int) *sparse.CSR {
	f := &sparse.CSR{Rows: n, Cols: n, P: make([]int, n+1), I: make([]int, n)}
	for i := 0; i < n; i++ {
		f.P[i+1] = i + 1
		f.I[i] = i
	}
	return f
}

// FTrsvToMVCSC is the paper's Listing 2: for SpTRSV (producing x) feeding
// SpMV CSC (column j1 reads x[j1]), iteration j1 of SpMV depends on
// iteration j1 of SpTRSV — but only when column j1 of A is nonempty.
func FTrsvToMVCSC(a *sparse.CSC) *sparse.CSR {
	n := a.Cols
	f := &sparse.CSR{Rows: n, Cols: n, P: make([]int, n+1)}
	for j := 0; j < n; j++ {
		if a.P[j] < a.P[j+1] {
			f.I = append(f.I, j)
		}
		f.P[j+1] = len(f.I)
	}
	return f
}

// FPattern builds F from the access pattern of a CSR matrix: iteration i of
// the second loop reads the vector entries indexed by row i of A, each
// produced by the matching iteration of the first loop. This is the
// TRSV -> SpMV dependency inside a Gauss-Seidel sweep (the SpMV's row i
// reads x[j] for every nonzero A[i][j], paper section 4.3).
func FPattern(a *sparse.CSR) *sparse.CSR {
	return &sparse.CSR{Rows: a.Rows, Cols: a.Cols,
		P: append([]int(nil), a.P...),
		I: append([]int(nil), a.I...),
	}
}

// The builders below cover the chain-composition combinations: an
// element-wise loop over n iterations feeding (or fed by) a blocked vector
// loop over ceil(n/block) iterations, and the reversed-iteration handover of
// a backward substitution. Together with FDiagonal and a dense F they are
// every adjacency a fused CG/PCG iteration needs.

// FBlockAgg is the aggregation F of an element-wise producer feeding a
// blocked consumer: block i of the second loop reads the elements
// [i*block, min((i+1)*block, n)) of the first loop's output — SpMV feeding a
// blocked partial dot.
func FBlockAgg(nb, n, block int) *sparse.CSR {
	f := &sparse.CSR{Rows: nb, Cols: n, P: make([]int, nb+1), I: make([]int, n)}
	for j := 0; j < n; j++ {
		f.I[j] = j
	}
	for i := 0; i < nb; i++ {
		hi := (i + 1) * block
		if hi > n {
			hi = n
		}
		f.P[i+1] = hi
	}
	return f
}

// FBlockExpand is the inverse handover: element j of the second loop depends
// on block j/block of the first — a blocked vector update feeding an
// element-wise consumer such as a triangular solve reading the updated
// residual.
func FBlockExpand(n, nb, block int) *sparse.CSR {
	f := &sparse.CSR{Rows: n, Cols: nb, P: make([]int, n+1), I: make([]int, n)}
	for j := 0; j < n; j++ {
		f.P[j+1] = j + 1
		f.I[j] = j / block
	}
	return f
}

// FBlockAggFlip aggregates the output of a reversed-iteration producer
// (SpTRSV-trans-CSC, whose iteration it finalizes element n-1-it): block i of
// the consumer reads elements [i*block, hi), produced by iterations
// [n-hi, n-1-i*block] — a contiguous ascending range, so each row is one
// span.
func FBlockAggFlip(nb, n, block int) *sparse.CSR {
	f := &sparse.CSR{Rows: nb, Cols: n, P: make([]int, nb+1), I: make([]int, n)}
	p := 0
	for i := 0; i < nb; i++ {
		lo := i * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		for it := n - hi; it <= n-1-lo; it++ {
			f.I[p] = it
			p++
		}
		f.P[i+1] = p
	}
	return f
}

// FAntiDiagonal is the handover between a forward and a backward
// substitution over the same n elements: the backward solve's iteration it
// consumes element j = n-1-it, so row it depends on column n-1-it. Also the
// degenerate nb = n case of FBlockAggFlip.
func FAntiDiagonal(n int) *sparse.CSR {
	f := &sparse.CSR{Rows: n, Cols: n, P: make([]int, n+1), I: make([]int, n)}
	for i := 0; i < n; i++ {
		f.P[i+1] = i + 1
		f.I[i] = n - 1 - i
	}
	return f
}

// FDense is the all-pairs F of a reduction crossing: every consumer block
// re-sums all producer partials, so every row depends on every column. Rows
// and cols are block counts, so the density is ceil(n/block)² — negligible
// next to the matrix pattern.
func FDense(rows, cols int) *sparse.CSR {
	f := &sparse.CSR{Rows: rows, Cols: cols, P: make([]int, rows+1), I: make([]int, rows*cols)}
	p := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			f.I[p] = j
			p++
		}
		f.P[i+1] = p
	}
	return f
}
