// Package relayout implements the packed-executor data re-layout stage that
// sits between schedule compilation (core.CompileSchedule) and execution
// (internal/exec): given a compiled core.Program and the participating
// kernels, it copies each kernel's sparse operand rows/columns into schedule
// execution order as flat, contiguous int32 index + float64 value streams
// (kernels.PackedStream), one stream per loop, segment-aligned with
// Program.SegOff/SegIter. A loop whose operand runs are, occurrence for
// occurrence, the very slices an earlier loop reads (two triangular solves
// over one L, fused in one order) reads that loop's stream instead of a copy
// of it.
//
// The paper's packing step (ICO step 3) chooses interleaved vs. separated
// vertex orders to create temporal locality, but an executor that still
// indirects through the matrix-order P/I/X arrays never realizes that
// locality in the memory system: every w-partition pointer-chases P[i] and
// touches I/X lines in matrix order. With a re-layout, every w-partition
// reads its operand data with a single advancing cursor — perfectly
// sequential, with compact int32 indices — so the order the inspector chose
// is the order memory is streamed in.
//
// Building a layout is a one-time inspection cost amortized the same way the
// schedule itself is: solvers that run one schedule per sweep or per solver
// iteration pay for the copy once.
package relayout

import (
	"fmt"
	"math"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// Layout is the schedule-order re-layout of a compiled program's operand
// data: one packed stream per loop plus the per-segment entry cursors that
// align the streams with the program's run segments.
type Layout struct {
	// Streams holds one packed stream per loop, indexed by loop tag. Two
	// loops hold the same *PackedStream when the later one's operand runs
	// are the earlier one's, occurrence for occurrence (pack's sharing rule;
	// Owner names the loop that filled it).
	Streams []*kernels.PackedStream
	// SegEnt[g] is the first operand-entry slot of program segment g in
	// Streams[Program.SegLoop[g]]. Together with Program.SegIter (the
	// occurrence cursor) it lets the executor start any segment — or any
	// fused two-loop span — at the right stream position.
	SegEnt []int32
	// Scatter[l] is the writer-exclusivity analysis of loop l when its kernel
	// scatters (kernels.SpillScatterer), nil otherwise: the loop's stream
	// already carries the redirects, this is the fold table that completes
	// them and the counts to report. Immutable like the streams; the slots
	// themselves are per-runner scratch.
	Scatter []*Scatter
	// Sum is the checksum of the source value arrays the streams were packed
	// from (SourceSum at build time). A layout shared across operations —
	// the schedule-cache path — bakes in matrix values, not just structure,
	// so consumers call VerifySum before attaching a layout they did not
	// build themselves.
	Sum uint64

	prog *core.Program
}

// Program returns the compiled program this layout was built for.
func (l *Layout) Program() *core.Program { return l.prog }

// Words returns the operand streams' memory footprint in 4-byte words, for
// reporting the re-layout's space cost. A stream several loops read counts
// once. The scatter fold tables (Scatter) are not operand data and are not
// counted.
func (l *Layout) Words() int {
	w := 0
	for loop, s := range l.Streams {
		if l.Owner(loop) == loop {
			w += s.Words()
		}
	}
	return w
}

// Owner returns the loop that filled loop's stream: loop itself, or the
// earlier loop whose stream it reads.
func (l *Layout) Owner(loop int) int {
	for j, s := range l.Streams[:loop] {
		if s == l.Streams[loop] {
			return j
		}
	}
	return loop
}

// sameBacking reports whether two non-empty slices start at the same element
// of one backing array.
func sameBacking[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// writtenValues lists the matrix value arrays a kernel overwrites during a
// run. A packed stream whose source is overwritten mid-run would serve stale
// values, so Build refuses such layouts.
func writtenValues(k kernels.Kernel) [][]float64 {
	switch w := k.(type) {
	case *kernels.DScalCSR:
		return [][]float64{w.Out.X}
	case *kernels.DScalCSC:
		return [][]float64{w.Out.X}
	case *kernels.SpIC0CSC:
		return [][]float64{w.L.X}
	case *kernels.SpILU0CSR:
		return [][]float64{w.A.X}
	}
	return nil
}

// Build constructs the packed layout for a compiled program: every
// iteration's operand run (kernels.PackedKernel.Operands) is copied into its
// loop's stream in execution order, and the scatter loops' shared targets are
// redirected into spill slots (scatter.go). It fails when a kernel does not
// support the packed layout, when a fused kernel overwrites another kernel's
// packed source during the run, or when a stream outgrows the int32 cursors;
// callers keep the compiled-unpacked executor as the fallback for those cases.
func Build(prog *core.Program, ks []kernels.Kernel) (*Layout, error) {
	packers, err := validateChain(prog, ks)
	if err != nil {
		return nil, err
	}
	lay, err := pack(prog, packers)
	if err != nil {
		return nil, err
	}
	lay.Scatter = make([]*Scatter, prog.NumLoops)
	for l, k := range ks[:prog.NumLoops] {
		if sc, ok := k.(kernels.SpillScatterer); ok {
			lay.Scatter[l] = redirectShared(prog, lay, l, sc)
		}
	}
	lay.Sum, _ = SourceSum(ks, prog.NumLoops)
	return lay, nil
}

// pack fills the streams in one ordered pass over the segments, g ascending:
// that is execution order, and each loop's occurrence order, because the
// w-partitions own consecutive segment ranges (Program.WSeg). A counting pass
// over the same operand runs comes first. It sets every segment's entry
// cursor (SegEnt), cross-checks the occurrence cursors against
// Program.SegIter, and sizes each array, which is then allocated once at its
// final length: the fill writes in place and never grows or moves one. A loop
// that shares an earlier loop's runs (sharedRuns) gets that loop's stream and
// is neither allocated nor filled.
func pack(prog *core.Program, packers []kernels.PackedKernel) (*Layout, error) {
	lay := &Layout{
		Streams: make([]*kernels.PackedStream, prog.NumLoops),
		SegEnt:  make([]int32, prog.NumSegments()),
		prog:    prog,
	}
	ents := make([]int, prog.NumLoops)
	occs := make([]int, prog.NumLoops)
	usesPos := make([]bool, prog.NumLoops)
	for g := 0; g < prog.NumSegments(); g++ {
		l := int(prog.SegLoop[g])
		if int32(occs[l]) != prog.SegIter[g] {
			return nil, fmt.Errorf("relayout: segment %d occurrence cursor %d does not match SegIter %d",
				g, occs[l], prog.SegIter[g])
		}
		lay.SegEnt[g] = int32(ents[l])
		for _, v := range prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]] {
			idx, _, pos := packers[l].Operands(int(v & kernels.IterMask))
			ents[l] += len(idx)
			usesPos[l] = usesPos[l] || pos >= 0
		}
		occs[l] += int(prog.SegOff[g+1] - prog.SegOff[g])
		if ents[l] > math.MaxInt32 {
			return nil, fmt.Errorf("relayout: loop %d stream exceeds int32 entry cursors", l)
		}
	}
	// A scatter loop's stream is rewritten in place (redirectShared), and a
	// Pos stream carries positions the runs do not: neither is shared.
	shareable := make([]bool, prog.NumLoops)
	for l, p := range packers {
		_, scatters := p.(kernels.SpillScatterer)
		shareable[l] = !scatters && !usesPos[l]
	}
	owner := make([]int, prog.NumLoops)
	for l := range lay.Streams {
		owner[l] = l
		for j := 0; j < l && owner[l] == l; j++ {
			if owner[j] == j && shareable[j] && shareable[l] && occs[j] == occs[l] && ents[j] == ents[l] &&
				sharedRuns(prog, packers, j, l) {
				owner[l] = j
			}
		}
		if owner[l] != l {
			lay.Streams[l] = lay.Streams[owner[l]]
			continue
		}
		s := &kernels.PackedStream{
			Idx: make([]int32, ents[l]),
			Val: make([]float64, ents[l]),
			Len: make([]int32, occs[l]),
		}
		if usesPos[l] {
			s.Pos = make([]int32, occs[l])
		}
		lay.Streams[l] = s
	}
	for g := 0; g < prog.NumSegments(); g++ {
		l := int(prog.SegLoop[g])
		if owner[l] != l {
			continue
		}
		s := lay.Streams[l]
		e, o := int(lay.SegEnt[g]), int(prog.SegIter[g])
		for _, v := range prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]] {
			idx, val, pos := packers[l].Operands(int(v & kernels.IterMask))
			for c, x := range idx {
				s.Idx[e+c] = int32(x)
			}
			copy(s.Val[e:], val)
			s.Len[o] = int32(len(idx))
			if s.Pos != nil {
				s.Pos[o] = int32(pos)
			}
			e += len(idx)
			o++
		}
	}
	return lay, nil
}

// sharedRuns reports whether loop l's operand run at every occurrence is the
// very slices of loop j's run at the same occurrence: index and value slices
// of the same length starting at the same element (sameBacking). Empty runs
// have no first element, so a loop that reads nothing (the vector kernels)
// shares with no one. When the runs match, the two streams would hold the
// same bytes, and l reads j's. It walks both loops' occurrences in lockstep
// and stops at the first difference; the caller has checked that the
// occurrence counts are equal and that neither loop has a Pos stream.
func sharedRuns(prog *core.Program, packers []kernels.PackedKernel, j, l int) bool {
	cj, cl := occCursor{prog: prog, loop: j}, occCursor{prog: prog, loop: l}
	for {
		ij, ok := cj.next()
		if !ok {
			return true
		}
		il, _ := cl.next()
		idxJ, valJ, _ := packers[j].Operands(ij)
		idxL, valL, _ := packers[l].Operands(il)
		if len(idxJ) != len(idxL) || len(valJ) != len(valL) || !sameBacking(idxJ, idxL) || !sameBacking(valJ, valL) {
			return false
		}
	}
}

// occCursor walks one loop's iterations in occurrence order: the program's
// iteration slots of that loop's segments, g ascending.
type occCursor struct {
	prog *core.Program
	loop int
	g    int   // current segment
	k    int32 // next iteration slot of segment g
}

// next returns the loop's next iteration, or ok=false past its last one.
func (c *occCursor) next() (it int, ok bool) {
	p := c.prog
	for c.g < p.NumSegments() && (int(p.SegLoop[c.g]) != c.loop || c.k >= p.SegOff[c.g+1]) {
		c.g++
		if c.g < p.NumSegments() {
			c.k = p.SegOff[c.g]
		}
	}
	if c.g == p.NumSegments() {
		return 0, false
	}
	v := p.Iters[c.k]
	c.k++
	return int(v & kernels.IterMask), true
}

// validateChain is Build's admission check: the chain must carry SegIter
// metadata, every kernel must support the packed layout, and no fused kernel
// may overwrite another kernel's packed source mid-run.
func validateChain(prog *core.Program, ks []kernels.Kernel) ([]kernels.PackedKernel, error) {
	if len(ks) < prog.NumLoops {
		return nil, fmt.Errorf("relayout: %d kernels for a %d-loop program", len(ks), prog.NumLoops)
	}
	if len(prog.SegIter) != prog.NumSegments() {
		return nil, fmt.Errorf("relayout: program lacks SegIter stream-offset metadata")
	}
	packers := make([]kernels.PackedKernel, prog.NumLoops)
	for l := 0; l < prog.NumLoops; l++ {
		p, ok := ks[l].(kernels.PackedKernel)
		if !ok {
			return nil, fmt.Errorf("relayout: kernel %s does not support the packed layout", ks[l].Name())
		}
		packers[l] = p
	}
	for l, p := range packers {
		src := p.PackedSource()
		for j, k := range ks[:prog.NumLoops] {
			if j == l {
				continue
			}
			for _, w := range writtenValues(k) {
				if sameBacking(src, w) {
					return nil, fmt.Errorf("relayout: kernel %s overwrites the packed source of %s during the run",
						k.Name(), ks[l].Name())
				}
			}
		}
	}
	return packers, nil
}

// SourceSum checksums the packed-source value arrays of the chain's first
// nLoops kernels: sparse.ValueSum of each, folded in loop order
// (sparse.FoldSums — a caller that already holds the arrays' checksums, like
// a matrix serving many operations, folds them itself and hashes nothing). It
// returns ok=false when a kernel does not support the packed layout — such
// chains never build a layout, so there is nothing to compare.
func SourceSum(ks []kernels.Kernel, nLoops int) (sum uint64, ok bool) {
	if len(ks) < nLoops {
		return 0, false
	}
	sums := make([]uint64, nLoops)
	for l := range sums {
		p, isPacker := ks[l].(kernels.PackedKernel)
		if !isPacker {
			return 0, false
		}
		sums[l] = sparse.ValueSum(p.PackedSource())
	}
	return sparse.FoldSums(sums...), true
}

// VerifySum is the staleness check for sharing a cached layout: it reports an
// error when sum — SourceSum of the kernels about to run on the layout — is
// not the sum of the values the layout packed. The schedule and compiled
// program depend only on the sparsity structure, so they are shared by
// fingerprint alone — but the packed streams copied values, and serving them
// to an operation whose matrix holds different values would silently compute
// with stale data. Callers that fail this check rebuild a private layout
// against the shared program instead.
func (l *Layout) VerifySum(sum uint64) error {
	if sum != l.Sum {
		return fmt.Errorf("relayout: source values differ from the ones the layout packed (sum %#x, layout %#x)", sum, l.Sum)
	}
	return nil
}
