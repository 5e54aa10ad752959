// Package kernels implements the sparse matrix kernels evaluated in the
// paper (Table 1): SpMV (CSR and CSC), SpTRSV (CSR and CSC), incomplete
// Cholesky with zero fill-in (SpIC0, CSC), incomplete LU with zero fill-in
// (SpILU0, CSR) and diagonal scaling (DSCAL).
//
// Every kernel satisfies the Kernel interface: it exposes its outer-loop
// iteration count, its intra-kernel dependency DAG (vertex = iteration,
// weight = nonzeros touched, paper section 3.1), a per-iteration body Run(i)
// that schedulers drive in any dependency-respecting order, and an access
// footprint used by the reuse-ratio model (paper section 2.2).
//
// Run(i) bodies only write state owned by iteration i — or use atomic
// accumulation when the kernel scatters (CSC kernels with Atomic set) — so a
// schedule that respects the DAG can execute w-partitions on concurrent
// goroutines without further locking.
package kernels

import (
	"reflect"

	"sparsefusion/internal/dag"
)

// Var identifies one array a kernel touches, for the reuse-ratio model. Two
// kernels share a variable when their Keys are equal; Key is the address of
// the underlying storage.
type Var struct {
	Key  uintptr
	Size int // scalar words
}

// VecVar builds the footprint entry for a dense vector.
func VecVar(x []float64) Var {
	if len(x) == 0 {
		return Var{}
	}
	return Var{Key: reflect.ValueOf(x).Pointer(), Size: len(x)}
}

// matVar builds the footprint entry for a sparse matrix given its value
// slice and total footprint in words.
func matVar(x []float64, size int) Var {
	if len(x) == 0 {
		return Var{Size: size}
	}
	return Var{Key: reflect.ValueOf(x).Pointer(), Size: size}
}

// Kernel is one fusable sparse loop.
type Kernel interface {
	// Name identifies the kernel in schedules and reports, e.g. "SpTRSV-CSR".
	Name() string
	// Iterations returns the trip count of the outer (fusable) loop.
	Iterations() int
	// DAG builds the intra-kernel dependency DAG; an edge-free DAG means the
	// loop is fully parallel. It is inspection input: the kernel builds it on
	// every call and keeps none of it, so the caller that asked owns it.
	DAG() *dag.Graph
	// Prepare resets the kernel's outputs so Run can be replayed; it must be
	// called before each full execution.
	Prepare()
	// Run executes outer-loop iteration i. All dependencies of i (DAG
	// predecessors) must have completed.
	Run(i int)
	// Footprint lists the arrays the kernel accesses, for the reuse ratio.
	Footprint() []Var
	// Flops returns the floating-point operations of one full execution,
	// used for the GFLOP/s reporting of figure 5.
	Flops() int64
}

// RunSeq executes a kernel sequentially in iteration order (the baseline
// order; valid because every DAG in this package has edges from lower to
// higher iteration indices). A numerical breakdown inside the kernel body
// (see BreakdownError) is recovered and returned as an error; any other
// panic propagates unchanged.
func RunSeq(k Kernel) (err error) {
	defer func() {
		if b := RecoverBreakdown(recover()); b != nil {
			err = b
		}
	}()
	k.Prepare()
	n := k.Iterations()
	for i := 0; i < n; i++ {
		k.Run(i)
	}
	return nil
}
