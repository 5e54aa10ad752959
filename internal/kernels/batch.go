package kernels

import (
	"fmt"

	"sparsefusion/internal/atomicf"
)

// This file defines the batch-execution ABI shared by the compiled executor
// (core.Program + internal/exec): schedules are flattened into one int32
// iteration stream with the loop tag packed into the high bits, and kernels
// that implement BatchRunner consume a whole single-loop run segment with a
// single dynamic dispatch instead of one Kernel.Run interface call per
// iteration.

const (
	// LoopShift is the bit position of the loop tag inside a packed stream
	// entry: bits 0..LoopShift-1 hold the iteration index, bits LoopShift..30
	// the loop number. 27 index bits bound fusable loops at 2^27 iterations
	// each, far beyond what fits in memory; 4 tag bits bound a fused chain at
	// MaxLoops loops, beyond the deepest Gauss-Seidel unrolling in use.
	LoopShift = 27
	// MaxLoops is the largest fusable chain a packed stream can tag.
	MaxLoops = 16
	// IterMask extracts the iteration index from a packed entry.
	IterMask int32 = 1<<LoopShift - 1
	// MaxIterations is the largest per-loop trip count a packed entry can hold.
	MaxIterations = 1 << LoopShift
)

// PackIter packs (loop, idx) into one stream entry. Callers must have
// checked loop < MaxLoops and idx < MaxIterations — out-of-range values
// silently corrupt the tag bits. Builders that consume unvalidated input go
// through PackIterChecked instead.
func PackIter(loop, idx int) int32 { return int32(loop)<<LoopShift | int32(idx) }

// PackIterChecked is the validating form of PackIter: it rejects loop tags
// that exceed the tag width and iteration indices that do not fit the index
// bits instead of truncating them into a corrupted entry.
func PackIterChecked(loop, idx int) (int32, error) {
	if loop < 0 || loop >= MaxLoops {
		return 0, fmt.Errorf("kernels: loop %d does not fit the %d-loop tag width", loop, MaxLoops)
	}
	if idx < 0 || idx >= MaxIterations {
		return 0, fmt.Errorf("kernels: iteration %d of loop %d does not fit in %d index bits", idx, loop, LoopShift)
	}
	return PackIter(loop, idx), nil
}

// UnpackIter splits a stream entry into (loop, idx).
func UnpackIter(v int32) (loop, idx int) { return int(v >> LoopShift), int(v & IterMask) }

// BatchRunner is implemented by kernels whose per-iteration body is cheap
// enough that the Kernel.Run interface dispatch is measurable: RunMany
// executes a whole run segment of packed entries (all tagged with this
// kernel's loop), masking each entry with IterMask. The dependency contract
// is the same as Run's, applied elementwise in stream order.
type BatchRunner interface {
	RunMany(iters []int32)
}

// PairRunner executes one mixed two-loop segment of a packed stream:
// interleaved packing alternates producer and consumer iterations, which
// shreds single-loop run segments down to a handful of entries and would turn
// batch dispatch back into per-iteration dispatch. A PairRunner is
// specialized to the two concrete kernel types, so the per-entry branch is a
// tag compare plus a call to the tagged kernel's body.
type PairRunner func(iters []int32)

// PackedPairRunner executes one mixed two-loop span of a packed iteration
// stream against the two loops' operand streams, advancing an entry cursor
// and an occurrence cursor per stream — the packed analogue of PairRunner.
type PackedPairRunner func(iters []int32, s1, s2 *PackedStream, ent1, it1, ent2, it2 int)

// FusePair returns a fused body for each rung — run reading the operands in
// matrix order, packed reading each loop's schedule-order stream through its
// own entry and occurrence cursors — for the hot producer-consumer pairs of
// the paper's Table 1 and the Gauss-Seidel/PCG solvers. A pair has both
// bodies or neither (ok=false), and a span of a pair without them is never
// coalesced: its segments run through their loops' batch bodies on either
// rung. loop1 is k1's stream tag.
//
// The packed bodies stay concrete closures. Written generic like pairRun,
// the packed TRSV-TRSV span measured no faster on lap2d:100 (205 µs
// concrete, 205.5 µs generic; spfuse's minimum over 300 runs, 10
// alternations, on a 2-vCPU VM) and slower on lap2d:80 (141.5 against
// 156.5 µs, generic slower in 7 of 10 alternations).
func FusePair(k1, k2 Kernel, loop1 int) (run PairRunner, packed PackedPairRunner, ok bool) {
	t1 := int32(loop1) << LoopShift
	switch a := k1.(type) {
	case *SpTRSVCSR:
		switch b := k2.(type) {
		case *SpMVCSC: // TRSV-MV (Table 1 row 3), PCG matvec feed
			return pairRun(a, b, t1), func(iters []int32, s1, s2 *PackedStream, e1, i1, e2, i2 int) {
				for _, v := range iters {
					i := int(v & IterMask)
					if v&^IterMask == t1 {
						e1 = a.packedIter(i, s1, e1, i1)
						i1++
					} else {
						e2 = b.packedIter(i, s2, e2, i2)
						i2++
					}
				}
			}, true
		case *SpMVPlusCSR: // sweep s TRSV -> sweep s+1 SpMV+b (Gauss-Seidel)
			return pairRun(a, b, t1), func(iters []int32, s1, s2 *PackedStream, e1, i1, e2, i2 int) {
				for _, v := range iters {
					i := int(v & IterMask)
					if v&^IterMask == t1 {
						e1 = a.packedIter(i, s1, e1, i1)
						i1++
					} else {
						e2 = b.packedIter(i, s2, e2, i2)
						i2++
					}
				}
			}, true
		case *SpTRSVCSR: // TRSV-TRSV (Table 1 row 1)
			return pairRun(a, b, t1), func(iters []int32, s1, s2 *PackedStream, e1, i1, e2, i2 int) {
				for _, v := range iters {
					i := int(v & IterMask)
					if v&^IterMask == t1 {
						e1 = a.packedIter(i, s1, e1, i1)
						i1++
					} else {
						e2 = b.packedIter(i, s2, e2, i2)
						i2++
					}
				}
			}, true
		}
	case *SpMVPlusCSR: // SpMV+b -> TRSV inside one Gauss-Seidel sweep
		if b, ok := k2.(*SpTRSVCSR); ok {
			return pairRun(a, b, t1), func(iters []int32, s1, s2 *PackedStream, e1, i1, e2, i2 int) {
				for _, v := range iters {
					i := int(v & IterMask)
					if v&^IterMask == t1 {
						e1 = a.packedIter(i, s1, e1, i1)
						i1++
					} else {
						e2 = b.packedIter(i, s2, e2, i2)
						i2++
					}
				}
			}, true
		}
	case *SpTRSVCSC: // forward solve -> backward solve (IC0 preconditioner)
		if b, ok := k2.(*SpTRSVTransCSC); ok {
			return pairRun(a, b, t1), func(iters []int32, s1, s2 *PackedStream, e1, i1, e2, i2 int) {
				for _, v := range iters {
					i := int(v & IterMask)
					if v&^IterMask == t1 {
						e1 = a.packedIter(i, s1, e1, i1)
						i1++
					} else {
						e2 = b.packedIter(i, s2, e2, i2)
						i2++
					}
				}
			}, true
		}
	}
	return nil, nil, false
}

// pairRun is FusePair's matrix-order body: each entry runs through the Run of
// the kernel its tag names.
func pairRun[A, B interface{ Run(int) }](a A, b B, t1 int32) PairRunner {
	return func(iters []int32) {
		for _, v := range iters {
			i := int(v & IterMask)
			if v&^IterMask == t1 {
				a.Run(i)
			} else {
				b.Run(i)
			}
		}
	}
}

// RunMany computes Y[i] = A[i][:]*X for each packed entry, through Run, which
// the compiler inlines (make inline).
func (k *SpMVCSR) RunMany(iters []int32) {
	for _, v := range iters {
		k.Run(int(v & IterMask))
	}
}

// RunMany scatters Y += A[:,j]*X[j] for each packed entry; the Atomic flag is
// hoisted out of the per-entry loop.
func (k *SpMVCSC) RunMany(iters []int32) {
	a := k.A
	if k.Atomic {
		for _, v := range iters {
			j := int(v & IterMask)
			xj := k.X[j]
			for p := a.P[j]; p < a.P[j+1]; p++ {
				atomicf.Add(&k.Y[a.I[p]], a.X[p]*xj)
			}
		}
		return
	}
	for _, v := range iters {
		j := int(v & IterMask)
		xj := k.X[j]
		for p := a.P[j]; p < a.P[j+1]; p++ {
			k.Y[a.I[p]] += a.X[p] * xj
		}
	}
}

// RunMany computes Y[i] = B[i] + A[i][:]*X for each packed entry, through
// Run, which the compiler inlines (make inline).
func (k *SpMVPlusCSR) RunMany(iters []int32) {
	for _, v := range iters {
		k.Run(int(v & IterMask))
	}
}

// RunMany solves the rows of the packed entries in stream order.
func (k *SpTRSVCSR) RunMany(iters []int32) {
	l := k.L
	for _, v := range iters {
		i := int(v & IterMask)
		xi := k.B[i]
		end := l.P[i+1] - 1
		for p := l.P[i]; p < end; p++ {
			xi -= l.X[p] * k.X[l.I[p]]
		}
		d := l.X[end]
		if d == 0 {
			breakdown(k.Name(), i, "zero diagonal")
		}
		k.X[i] = xi / d
	}
}

// RunMany finalizes and scatters the columns of the packed entries in stream
// order; the Atomic flag is hoisted out of the per-entry loop.
func (k *SpTRSVCSC) RunMany(iters []int32) {
	l := k.L
	if k.Atomic {
		for _, v := range iters {
			j := int(v & IterMask)
			p := l.P[j]
			d := l.X[p]
			if d == 0 {
				breakdown(k.Name(), j, "zero diagonal")
			}
			xj := (k.B[j] + k.X[j]) / d
			k.X[j] = xj
			for p++; p < l.P[j+1]; p++ {
				atomicf.Add(&k.X[l.I[p]], -l.X[p]*xj)
			}
		}
		return
	}
	for _, v := range iters {
		j := int(v & IterMask)
		p := l.P[j]
		d := l.X[p]
		if d == 0 {
			breakdown(k.Name(), j, "zero diagonal")
		}
		xj := (k.B[j] + k.X[j]) / d
		k.X[j] = xj
		for p++; p < l.P[j+1]; p++ {
			k.X[l.I[p]] -= l.X[p] * xj
		}
	}
}

// RunMany solves the packed entries' columns of L' in stream order.
func (k *SpTRSVTransCSC) RunMany(iters []int32) {
	l := k.L
	for _, v := range iters {
		it := int(v & IterMask)
		j := l.Cols - 1 - it
		p := l.P[j]
		diag := l.X[p]
		if diag == 0 {
			breakdown(k.Name(), it, "zero diagonal in column %d", j)
		}
		xj := k.B[j]
		for p++; p < l.P[j+1]; p++ {
			xj -= l.X[p] * k.X[l.I[p]]
		}
		k.X[j] = xj / diag
	}
}

// RunMany solves the packed entries' unit-lower rows in stream order.
func (k *SpTRSVUnitLowerCSR) RunMany(iters []int32) {
	lu := k.LU
	for _, v := range iters {
		i := int(v & IterMask)
		xi := k.B[i]
		for p := lu.P[i]; p < lu.P[i+1]; p++ {
			j := lu.I[p]
			if j >= i {
				break
			}
			xi -= lu.X[p] * k.X[j]
		}
		if xi-xi != 0 {
			breakdown(k.Name(), i, "non-finite solution %v", xi)
		}
		k.X[i] = xi
	}
}

// RunMany scales the packed entries' rows.
func (k *DScalCSR) RunMany(iters []int32) {
	a := k.A
	for _, v := range iters {
		i := int(v & IterMask)
		di := k.D[i]
		if di-di != 0 {
			breakdown(k.Name(), i, "non-finite scale %v", di)
		}
		for p := a.P[i]; p < a.P[i+1]; p++ {
			k.Out.X[p] = di * a.X[p] * k.D[a.I[p]]
		}
	}
}

// RunMany scales the packed entries' columns.
func (k *DScalCSC) RunMany(iters []int32) {
	a := k.A
	for _, v := range iters {
		j := int(v & IterMask)
		dj := k.D[j]
		if dj-dj != 0 {
			breakdown(k.Name(), j, "non-finite scale %v", dj)
		}
		for p := a.P[j]; p < a.P[j+1]; p++ {
			k.Out.X[p] = k.D[a.I[p]] * a.X[p] * dj
		}
	}
}

// Compile-time checks that every cheap-bodied kernel stays batchable.
var (
	_ BatchRunner = (*SpMVCSR)(nil)
	_ BatchRunner = (*SpMVCSC)(nil)
	_ BatchRunner = (*SpMVPlusCSR)(nil)
	_ BatchRunner = (*SpTRSVCSR)(nil)
	_ BatchRunner = (*SpTRSVCSC)(nil)
	_ BatchRunner = (*SpTRSVTransCSC)(nil)
	_ BatchRunner = (*SpTRSVUnitLowerCSR)(nil)
	_ BatchRunner = (*DScalCSR)(nil)
	_ BatchRunner = (*DScalCSC)(nil)
)
