package kernels

// This file defines the packed-executor ABI (internal/relayout +
// internal/exec): a kernel's sparse operand rows/columns are copied once, at
// inspection time, into schedule execution order, so the executor's hot loop
// reads one contiguous int32 index stream and one contiguous float64 value
// stream with a single advancing cursor instead of pointer-chasing P[i] into
// matrix-order I/X arrays. Indices are compact int32 (16 per cache line
// against 8 for the matrix-order []int arrays), and both streams are
// perfectly sequential in execution order, so the locality the schedule's
// packing step creates is realized in the memory system.
//
// The gather bodies replay the exact arithmetic of the Run/RunMany bodies in
// the same order, so their packed outputs are bit-identical to the
// compiled-unpacked executor and the one-thread schedule walk (asserted by
// tests in this package and internal/exec). The scatter bodies (SpMV-CSC, SpTRSV-CSC) never synchronize:
// the re-layout proves which targets have one writer per s-partition and
// redirects every other update into a private spill slot (SpillScatterer), so
// their sums are reproducible run to run at any worker count, but associate
// differently from the column-order sequential sum.

// PackedStream is one loop's sparse operand re-laid-out into schedule
// execution order. Entries of consecutive scheduled iterations are adjacent:
// iteration occurrence o (the o-th time this loop appears in the execution
// stream) owns Len[o] entries, starting where occurrence o-1's ended. A stream
// may serve several loops: those whose operand runs are, occurrence for
// occurrence, the same (relayout.Layout.Owner).
type PackedStream struct {
	// Idx holds the operand indices (column ids of a CSR row, row ids of a
	// CSC column) of every scheduled iteration, one contiguous run per
	// occurrence, in execution order. In a scatter kernel's stream a negative
	// entry ^slot redirects the update into spill slot slot instead of the
	// target vector (see SpillScatterer).
	Idx []int32
	// Val holds the matching operand values, parallel to Idx.
	Val []float64
	// Len holds the entry count of each occurrence, in occurrence order.
	Len []int32
	// Pos holds the original first value slot (the matrix P[i]) of each
	// occurrence, for kernels that write matrix values at their original
	// positions (DSCAL). Kernels that do not need it leave Pos empty.
	Pos []int32
}

// Entries returns the total number of packed operand entries.
func (s *PackedStream) Entries() int { return len(s.Idx) }

// Occurrences returns the number of scheduled iterations packed.
func (s *PackedStream) Occurrences() int { return len(s.Len) }

// Words returns the stream's memory footprint in 4-byte words.
func (s *PackedStream) Words() int { return len(s.Idx) + 2*len(s.Val) + len(s.Len) + len(s.Pos) }

// PackedKernel is implemented by the kernels the packed executor supports.
type PackedKernel interface {
	// Operands is iteration i's operand run: the sparse entries its body
	// reads, in the order it reads them — parallel index and value slices of
	// the kernel's matrix — and, for bodies that write matrix values at their
	// original positions (DSCAL), the run's position in those arrays; -1 for
	// every other kernel. The one description of what an iteration touches:
	// the re-layout packs it (relayout.Build) and the matrix-order trace
	// reads it in place (MatrixView).
	Operands(i int) (idx []int, val []float64, pos int)
	// PackedSource is the value array Operands reads, so the relayout stage
	// can refuse layouts whose source another fused kernel overwrites during
	// the run (the packed copy would go stale mid-execution).
	PackedSource() []float64
	// RunManyPacked executes a whole run segment of packed entries against a
	// schedule-order operand stream: ent is the segment's first operand-entry
	// slot and it its first occurrence slot in s (relayout.Layout.SegEnt and
	// core.Program.SegIter). The dependency contract is the same as Run's,
	// applied elementwise in stream order.
	RunManyPacked(iters []int32, s *PackedStream, ent, it int)
}

// SpillScatterer is implemented by the packed kernels whose iterations
// accumulate into entries of a shared vector (the loops figure 2a of the paper
// annotates as atomic). Instead of atomics, the re-layout decides per
// s-partition which targets exactly one w-partition writes — those keep their
// index in the stream and take a plain += — and rewrites every update to a
// target two w-partitions share into ^slot, a private accumulator owned by
// that (s-partition, w-partition, target). The executor folds an s-partition's
// slots into their targets after its barrier, in slot order.
type SpillScatterer interface {
	// ScatterShape reports the target vector's length and how many leading
	// entries of each occurrence are not scatter updates (the diagonal of a
	// triangular-solve column).
	ScatterShape() (targets, skip int)
	// BindSpill points the packed body at the slot scratch of the runner
	// about to execute it. Slots are per runner, never part of the shared
	// layout, and must be zero between runs.
	BindSpill(slots []float64)
	// FoldSpill adds slot i into target tgt[i] for ascending i, zeroing the
	// slots it consumed.
	FoldSpill(tgt []int32)
}

// foldSpill is the shared FoldSpill body.
func foldSpill(dst, slots []float64, tgt []int32) {
	slots = slots[:len(tgt)]
	for i, t := range tgt {
		dst[t] += slots[i]
		slots[i] = 0
	}
}

// csrRun is row/column i of a matrix-order (p, idx, val) triple: the operand
// run of most kernels.
func csrRun(p, idx []int, val []float64, i int) ([]int, []float64, int) {
	lo, hi := p[i], p[i+1]
	return idx[lo:hi], val[lo:hi], -1
}

// ---- SpMV-CSR ----

func (k *SpMVCSR) Operands(i int) ([]int, []float64, int) { return csrRun(k.A.P, k.A.I, k.A.X, i) }
func (k *SpMVCSR) PackedSource() []float64                { return k.A.X }

// RunManyPacked computes Y[i] = A[i][:]*X from the packed stream.
func (k *SpMVCSR) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		i := int(v & IterMask)
		n := int(s.Len[it+o])
		vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
		ent += n
		sum := 0.0
		for c := 0; c < n; c++ {
			sum += vs[c] * k.X[is[c]]
		}
		k.Y[i] = sum
	}
}

// ---- SpMV-CSC ----

func (k *SpMVCSC) Operands(j int) ([]int, []float64, int) { return csrRun(k.A.P, k.A.I, k.A.X, j) }
func (k *SpMVCSC) PackedSource() []float64                { return k.A.X }

func (k *SpMVCSC) ScatterShape() (targets, skip int) { return k.A.Rows, 0 }
func (k *SpMVCSC) BindSpill(slots []float64)         { k.spill = slots }
func (k *SpMVCSC) FoldSpill(tgt []int32)             { foldSpill(k.Y, k.spill, tgt) }

// packedIter scatters one packed column; shared with the fused pair bodies.
func (k *SpMVCSC) packedIter(j int, s *PackedStream, ent, it int) int {
	n := int(s.Len[it])
	vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
	xj := k.X[j]
	for c, t := range is {
		if t >= 0 {
			k.Y[t] += vs[c] * xj
		} else {
			k.spill[^t] += vs[c] * xj
		}
	}
	return ent + n
}

// RunManyPacked scatters Y += A[:,j]*X[j] from the packed stream.
func (k *SpMVCSC) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		ent = k.packedIter(int(v&IterMask), s, ent, it+o)
	}
}

// ---- SpMV+b-CSR ----

func (k *SpMVPlusCSR) Operands(i int) ([]int, []float64, int) { return csrRun(k.A.P, k.A.I, k.A.X, i) }
func (k *SpMVPlusCSR) PackedSource() []float64                { return k.A.X }

// packedIter computes one packed row; shared with the fused pair bodies.
func (k *SpMVPlusCSR) packedIter(i int, s *PackedStream, ent, it int) int {
	n := int(s.Len[it])
	vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
	sum := k.B[i]
	for c := 0; c < n; c++ {
		sum += vs[c] * k.X[is[c]]
	}
	k.Y[i] = sum
	return ent + n
}

// RunManyPacked computes Y[i] = B[i] + A[i][:]*X from the packed stream.
func (k *SpMVPlusCSR) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		ent = k.packedIter(int(v&IterMask), s, ent, it+o)
	}
}

// ---- SpTRSV-CSR ----

func (k *SpTRSVCSR) Operands(i int) ([]int, []float64, int) { return csrRun(k.L.P, k.L.I, k.L.X, i) }
func (k *SpTRSVCSR) PackedSource() []float64                { return k.L.X }

// packedIter solves one packed row (diagonal last); shared with the fused
// pair bodies.
func (k *SpTRSVCSR) packedIter(i int, s *PackedStream, ent, it int) int {
	n := int(s.Len[it])
	vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
	xi := k.B[i]
	for c := 0; c < n-1; c++ {
		xi -= vs[c] * k.X[is[c]]
	}
	d := vs[n-1]
	if d == 0 {
		breakdown(k.Name(), i, "zero diagonal")
	}
	k.X[i] = xi / d
	return ent + n
}

// RunManyPacked solves the packed rows in stream order.
func (k *SpTRSVCSR) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		i := int(v & IterMask)
		n := int(s.Len[it+o])
		vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
		ent += n
		xi := k.B[i]
		for c := 0; c < n-1; c++ {
			xi -= vs[c] * k.X[is[c]]
		}
		d := vs[n-1]
		if d == 0 {
			breakdown(k.Name(), i, "zero diagonal")
		}
		k.X[i] = xi / d
	}
}

// ---- SpTRSV-CSC ----

func (k *SpTRSVCSC) Operands(j int) ([]int, []float64, int) { return csrRun(k.L.P, k.L.I, k.L.X, j) }
func (k *SpTRSVCSC) PackedSource() []float64                { return k.L.X }

func (k *SpTRSVCSC) ScatterShape() (targets, skip int) { return k.L.Rows, 1 }
func (k *SpTRSVCSC) BindSpill(slots []float64)         { k.spill = slots }
func (k *SpTRSVCSC) FoldSpill(tgt []int32)             { foldSpill(k.X, k.spill, tgt) }

// packedIter finalizes and scatters one packed column (diagonal first);
// shared with the fused pair bodies.
func (k *SpTRSVCSC) packedIter(j int, s *PackedStream, ent, it int) int {
	n := int(s.Len[it])
	vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
	if vs[0] == 0 {
		breakdown(k.Name(), j, "zero diagonal")
	}
	xj := (k.B[j] + k.X[j]) / vs[0]
	k.X[j] = xj
	for c := 1; c < n; c++ {
		if t := is[c]; t >= 0 {
			k.X[t] -= vs[c] * xj
		} else {
			k.spill[^t] -= vs[c] * xj
		}
	}
	return ent + n
}

// RunManyPacked finalizes and scatters the packed columns in stream order.
func (k *SpTRSVCSC) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		ent = k.packedIter(int(v&IterMask), s, ent, it+o)
	}
}

// ---- SpTRSV-trans-CSC ----

// Operands is column j = Cols-1-i, the column iteration i solves.
func (k *SpTRSVTransCSC) Operands(i int) ([]int, []float64, int) {
	return csrRun(k.L.P, k.L.I, k.L.X, k.L.Cols-1-i)
}
func (k *SpTRSVTransCSC) PackedSource() []float64 { return k.L.X }

// packedIter solves one packed column of L' (diagonal first); shared with
// the fused pair bodies.
func (k *SpTRSVTransCSC) packedIter(i int, s *PackedStream, ent, it int) int {
	n := int(s.Len[it])
	vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
	j := k.L.Cols - 1 - i
	diag := vs[0]
	if diag == 0 {
		breakdown(k.Name(), i, "zero diagonal in column %d", j)
	}
	xj := k.B[j]
	for c := 1; c < n; c++ {
		xj -= vs[c] * k.X[is[c]]
	}
	k.X[j] = xj / diag
	return ent + n
}

// RunManyPacked solves the packed columns of L' in stream order.
func (k *SpTRSVTransCSC) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		i := int(v & IterMask)
		n := int(s.Len[it+o])
		vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
		ent += n
		j := k.L.Cols - 1 - i
		diag := vs[0]
		if diag == 0 {
			breakdown(k.Name(), i, "zero diagonal in column %d", j)
		}
		xj := k.B[j]
		for c := 1; c < n; c++ {
			xj -= vs[c] * k.X[is[c]]
		}
		k.X[j] = xj / diag
	}
}

// ---- SpTRSV-unitL-CSR ----

// Operands is only the strictly-lower prefix of row i — the entries Run
// actually reads — so the packed stream is denser than the source row.
func (k *SpTRSVUnitLowerCSR) Operands(i int) ([]int, []float64, int) {
	lu := k.LU
	lo, hi := lu.P[i], lu.P[i]
	for hi < lu.P[i+1] && lu.I[hi] < i {
		hi++
	}
	return lu.I[lo:hi], lu.X[lo:hi], -1
}
func (k *SpTRSVUnitLowerCSR) PackedSource() []float64 { return k.LU.X }

// RunManyPacked solves the packed unit-lower rows in stream order.
func (k *SpTRSVUnitLowerCSR) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		i := int(v & IterMask)
		n := int(s.Len[it+o])
		vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
		ent += n
		xi := k.B[i]
		for c := 0; c < n; c++ {
			xi -= vs[c] * k.X[is[c]]
		}
		if xi-xi != 0 {
			breakdown(k.Name(), i, "non-finite solution %v", xi)
		}
		k.X[i] = xi
	}
}

// ---- DSCAL ----

// Operands is row i of the replayable input values (the a0 snapshot — A.X
// itself may hold a previous run's in-place output until Prepare restores it)
// plus the row's original value position for the Out.X writes.
func (k *DScalCSR) Operands(i int) ([]int, []float64, int) {
	idx, val, _ := csrRun(k.A.P, k.A.I, k.a0, i)
	return idx, val, k.A.P[i]
}
func (k *DScalCSR) PackedSource() []float64 { return k.a0 }

// RunManyPacked scales the packed rows, writing Out.X at the original matrix
// positions.
func (k *DScalCSR) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		i := int(v & IterMask)
		n := int(s.Len[it+o])
		vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
		ent += n
		p0 := int(s.Pos[it+o])
		out := k.Out.X[p0 : p0+n]
		di := k.D[i]
		if di-di != 0 {
			breakdown(k.Name(), i, "non-finite scale %v", di)
		}
		for c := 0; c < n; c++ {
			out[c] = di * vs[c] * k.D[is[c]]
		}
	}
}

// Operands is column j of the replayable input values plus the column's
// original value position.
func (k *DScalCSC) Operands(j int) ([]int, []float64, int) {
	idx, val, _ := csrRun(k.A.P, k.A.I, k.a0, j)
	return idx, val, k.A.P[j]
}
func (k *DScalCSC) PackedSource() []float64 { return k.a0 }

// RunManyPacked scales the packed columns, writing Out.X at the original
// matrix positions.
func (k *DScalCSC) RunManyPacked(iters []int32, s *PackedStream, ent, it int) {
	for o, v := range iters {
		j := int(v & IterMask)
		n := int(s.Len[it+o])
		vs, is := s.Val[ent:ent+n], s.Idx[ent:ent+n]
		ent += n
		p0 := int(s.Pos[it+o])
		out := k.Out.X[p0 : p0+n]
		dj := k.D[j]
		if dj-dj != 0 {
			breakdown(k.Name(), j, "non-finite scale %v", dj)
		}
		for c := 0; c < n; c++ {
			out[c] = k.D[is[c]] * vs[c] * dj
		}
	}
}

// Compile-time checks that every batchable kernel also supports the packed
// layout end to end.
var (
	_ PackedKernel = (*SpMVCSR)(nil)
	_ PackedKernel = (*SpMVCSC)(nil)
	_ PackedKernel = (*SpMVPlusCSR)(nil)
	_ PackedKernel = (*SpTRSVCSR)(nil)
	_ PackedKernel = (*SpTRSVCSC)(nil)
	_ PackedKernel = (*SpTRSVTransCSC)(nil)
	_ PackedKernel = (*SpTRSVUnitLowerCSR)(nil)
	_ PackedKernel = (*DScalCSR)(nil)
	_ PackedKernel = (*DScalCSC)(nil)

	_ SpillScatterer = (*SpMVCSC)(nil)
	_ SpillScatterer = (*SpTRSVCSC)(nil)
)
