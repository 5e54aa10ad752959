package combos

import (
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// CGBlock is the element count per vector-kernel iteration of the facade's
// CG and PCG chains, a constant of the solver. Large enough that the dense
// inter-reduction F matrices stay negligible (ceil(n/block)^2 entries), small
// enough that the blocks spread across workers.
const CGBlock = 512

// CGVectors is the storage a CG or PCG chain's kernels are wired to: the
// solver vectors, the per-block reduction partials and the host-owned scalar
// cell RZ (the previous r·z, or r·r unpreconditioned) the update kernels
// read. Y, Z and PartRZ exist only in a preconditioned chain.
type CGVectors struct {
	X, R, P, Q, Y, Z       []float64
	PartPQ, PartRZ, PartRR []float64
	RZ                     []float64
}

// NewCGVectors allocates zeroed storage for a chain over n elements in blocks
// of block, with RZ = 1.
func NewCGVectors(n, block int, precond bool) *CGVectors {
	nb := (n + block - 1) / block
	vec := func() []float64 { return make([]float64, n) }
	v := &CGVectors{
		X: vec(), R: vec(), P: vec(), Q: vec(),
		PartPQ: make([]float64, nb), PartRR: make([]float64, nb),
		RZ: []float64{1},
	}
	if precond {
		v.Y, v.Z, v.PartRZ = vec(), vec(), make([]float64, nb)
	}
	return v
}

// CGChain is the per-iteration kernel chain of a fused CG or PCG solver over
// the SPD matrix a, in program order:
//
//	L0 q = A·p                 L1 partPQ = p·q per block
//	L2 x += (rz/Σ partPQ)·p    L3 r -= (rz/Σ partPQ)·q
//
// then, unpreconditioned, L4 partRR = r·r and L5 p = r + (Σ partRR/rz)·p;
// preconditioned (8 loops), L4 y = L\r, L5 z = L'\y with L the IC0 factor of
// a, L6 partRZ = r·z and partRR = r·r in one pass, and L7
// p = z + (Σ partRZ/rz)·p. The kernels read and write v; the dependency
// matrices are cgDeps'. Preconditioning runs the IC0 factorization, the one
// step that can fail.
//
// The reductions stay inside the schedule: the dot kernels materialize
// per-block partials and every consumer block re-sums them in fixed index
// order, which keeps the arithmetic bit-identical at every worker count on
// every executor. WAR hazards (this iteration's p is read by the SpMV and
// overwritten by the last loop) are covered transitively: every reader of a
// vector precedes its writer through the F chain, which Loops.Validate
// verifies.
func CGChain(a *sparse.CSR, v *CGVectors, precond bool, block int) (ChainSpec, error) {
	n := a.Rows
	fs := cgDeps(n, block, precond)
	links := []ChainLink{
		{K: kernels.NewSpMVCSR(a, v.P, v.Q)},
		{K: kernels.NewVecDot(v.P, v.Q, v.PartPQ, block), F: fs[0]},
		{K: kernels.NewVecAxpyDot(v.P, v.X, v.RZ, v.PartPQ, +1, block, true), F: fs[1]},
		{K: kernels.NewVecAxpyDot(v.Q, v.R, v.RZ, v.PartPQ, -1, block, false), F: fs[2]},
	}
	if !precond {
		links = append(links,
			ChainLink{K: kernels.NewVecDot(v.R, v.R, v.PartRR, block), F: fs[3]},
			ChainLink{K: kernels.NewVecXpayDot(v.R, v.P, v.RZ, v.PartRR, block), F: fs[4]})
		return ChainSpec{Name: "cg", Links: links}, nil
	}
	lc := a.Lower().ToCSC()
	if err := kernels.RunSeq(kernels.NewSpIC0CSC(lc)); err != nil {
		return ChainSpec{}, fmt.Errorf("IC0 factorization failed: %w", err)
	}
	// The forward solve gathers row-wise from the CSR form of the factor;
	// both solves are gather-only (one writer per element, fixed interior
	// order), which is what keeps the whole chain bit-reproducible — unlike
	// the scatter CSC forward solve.
	links = append(links,
		ChainLink{K: kernels.NewSpTRSVCSR(lc.ToCSR(), v.R, v.Y), F: fs[3]},
		ChainLink{K: kernels.NewSpTRSVTransCSC(lc, v.Y, v.Z), F: fs[4]},
		ChainLink{K: kernels.NewVecDotDual(v.R, v.Z, v.PartRZ, v.R, v.R, v.PartRR, block), F: fs[5]},
		ChainLink{K: kernels.NewVecXpayDot(v.Z, v.P, v.RZ, v.PartRZ, block), F: fs[6]})
	return ChainSpec{Name: "pcg", Links: links}, nil
}

// cgDeps builds the dependency matrices F of the CG chain's links after the
// first, in link order, over n elements in blocks of block. The two dense
// links, into L2 and into the last loop, are all-to-all once there is more
// than one block: at more than one thread ICO cuts the chain there and
// schedules the segments one after another, L0-L1, L2-L4 and L5 for CG and
// L0-L1, L2-L6 and L7 for PCG (see core.icoRun).
func cgDeps(n, block int, precond bool) []*sparse.CSR {
	nb := (n + block - 1) / block
	fs := []*sparse.CSR{
		// L1 <- L0: block i of p·q reads q over block i.
		core.FBlockAgg(nb, n, block),
		// L2 <- L1: every block re-sums all partials.
		core.FDense(nb, nb),
		// L3 <- L2: block i only needs block i of L2 to have re-summed first
		// (the dense hop to L1 is already behind L2).
		core.FDiagonal(nb),
	}
	if !precond {
		return append(fs,
			// L4 <- L3: r·r over block i needs only block i of r.
			core.FDiagonal(nb),
			// L5 <- L4: every block re-sums all partials.
			core.FDense(nb, nb))
	}
	return append(fs,
		// L4 <- L3: row j of L \ r reads exactly r[j], produced by block
		// j/block of L3.
		core.FBlockExpand(n, nb, block),
		// L5 <- L4: iteration it of L' \ y finalizes element n-1-it.
		core.FAntiDiagonal(n),
		// L6 <- L5: the producer iterates in reversed order, so the
		// aggregation is flipped.
		core.FBlockAggFlip(nb, n, block),
		// L7 <- L6: every block re-sums all partials.
		core.FDense(nb, nb))
}
