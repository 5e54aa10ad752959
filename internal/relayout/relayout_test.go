package relayout

import (
	"reflect"
	"strings"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// buildGSProgram hand-builds a two-loop program (TRSV rows as loop 0, SpMV+b
// rows as loop 1) with interleaved segments across two s-partitions, so the
// layout has to track per-loop occurrence and entry cursors across many
// segments. Build does not need the schedule to be dependency-valid.
func buildGSProgram(t *testing.T, n int) (*core.Program, []kernels.Kernel, *sparse.CSR) {
	t.Helper()
	a := sparse.Must(sparse.RandomSPD(n, 5, 17))
	l := a.Lower()
	b := sparse.RandomVec(n, 18)
	y := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, b, y)
	k2 := kernels.NewSpMVPlusCSR(a, y, b, z)

	pb, err := core.NewProgramBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	add := func(loop, idx int) {
		if err := pb.Add(loop, idx); err != nil {
			t.Fatal(err)
		}
	}
	// Two s-partitions, two w-partitions each, alternating small segments.
	half := n / 2
	for s := 0; s < 2; s++ {
		lo := s * half
		hi := lo + half
		mid := (lo + hi) / 2
		pb.StartS()
		if err := pb.StartW(); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < mid; i++ {
			add(0, i)
			if i%3 == 0 {
				add(1, i)
			}
		}
		if err := pb.StartW(); err != nil {
			t.Fatal(err)
		}
		for i := mid; i < hi; i++ {
			add(0, i)
			if i%3 != 0 {
				add(1, i)
			}
		}
	}
	// Mop up the loop-1 iterations not yet scheduled.
	pb.StartS()
	if err := pb.StartW(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for s := 0; s < 2; s++ {
		lo := s * half
		hi := lo + half
		mid := (lo + hi) / 2
		for i := lo; i < mid; i++ {
			if i%3 == 0 {
				seen[i] = true
			}
		}
		for i := mid; i < hi; i++ {
			if i%3 != 0 {
				seen[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			add(1, i)
		}
	}
	return pb.Finish(), []kernels.Kernel{k1, k2}, l
}

// TestBuildAlignment checks the layout invariants the packed executor relies
// on: SegEnt/SegIter walk each loop's stream in lockstep with the program's
// segments, occurrence counts match the scheduled iteration counts, and the
// packed entries are the source rows in schedule order.
func TestBuildAlignment(t *testing.T) {
	const n = 120
	prog, ks, l := buildGSProgram(t, n)
	lay, err := Build(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Program() != prog {
		t.Fatal("layout does not reference its program")
	}
	if len(lay.SegEnt) != prog.NumSegments() {
		t.Fatalf("%d SegEnt entries for %d segments", len(lay.SegEnt), prog.NumSegments())
	}
	if got := lay.Words(); got <= 0 {
		t.Fatalf("layout words = %d", got)
	}

	// Per-loop totals: every loop's stream has one occurrence per scheduled
	// iteration and entries summing to its Len stream.
	counts := make([]int, prog.NumLoops)
	for _, v := range prog.Iters {
		loop, _ := kernels.UnpackIter(v)
		counts[loop]++
	}
	for loop, s := range lay.Streams {
		if s.Occurrences() != counts[loop] {
			t.Fatalf("loop %d: %d occurrences, want %d", loop, s.Occurrences(), counts[loop])
		}
		sum := 0
		for _, ln := range s.Len {
			sum += int(ln)
		}
		if sum != s.Entries() {
			t.Fatalf("loop %d: Len sums to %d, Entries = %d", loop, sum, s.Entries())
		}
		if len(s.Val) != s.Entries() {
			t.Fatalf("loop %d: %d values for %d entries", loop, len(s.Val), s.Entries())
		}
	}

	// Cursor walk: replaying the segments in order, SegEnt/SegIter must equal
	// the running per-loop cursors, and each occurrence must hold the source
	// row of its scheduled iteration.
	ent := make([]int, prog.NumLoops)
	it := make([]int, prog.NumLoops)
	for g := 0; g < prog.NumSegments(); g++ {
		loop := int(prog.SegLoop[g])
		if int(lay.SegEnt[g]) != ent[loop] {
			t.Fatalf("segment %d: SegEnt %d, cursor %d", g, lay.SegEnt[g], ent[loop])
		}
		if int(prog.SegIter[g]) != it[loop] {
			t.Fatalf("segment %d: SegIter %d, cursor %d", g, prog.SegIter[g], it[loop])
		}
		s := lay.Streams[loop]
		for _, v := range prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]] {
			_, idx := kernels.UnpackIter(v)
			ln := int(s.Len[it[loop]])
			if loop == 0 { // TRSV over l: full row i
				if want := l.P[idx+1] - l.P[idx]; ln != want {
					t.Fatalf("segment %d iter %d: packed %d entries, row has %d", g, idx, ln, want)
				}
				for c := 0; c < ln; c++ {
					if s.Val[ent[loop]+c] != l.X[l.P[idx]+c] {
						t.Fatalf("segment %d iter %d entry %d: packed value diverges", g, idx, c)
					}
					if int(s.Idx[ent[loop]+c]) != l.I[l.P[idx]+c] {
						t.Fatalf("segment %d iter %d entry %d: packed index diverges", g, idx, c)
					}
				}
			}
			ent[loop] += ln
			it[loop]++
		}
	}
	for loop, s := range lay.Streams {
		if ent[loop] != s.Entries() || it[loop] != s.Occurrences() {
			t.Fatalf("loop %d: walk ended at (%d,%d), stream has (%d,%d)",
				loop, ent[loop], it[loop], s.Entries(), s.Occurrences())
		}
	}
}

// TestBuildPosStream: a kernel whose operand runs carry a position (DSCAL,
// whose outputs land at matrix positions) gets one Pos slot per occurrence,
// and the segments Build fills — here four w-partitions over two
// s-partitions — hold exactly the matrix rows in order.
func TestBuildPosStream(t *testing.T) {
	const n = 80
	a := sparse.Must(sparse.RandomSPD(n, 5, 31))
	k := kernels.NewDScalCSR(a, kernels.JacobiScaling(a), a.Clone())
	pb, err := core.NewProgramBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%(n/2) == 0 {
			pb.StartS()
		}
		if i%(n/4) == 0 {
			if err := pb.StartW(); err != nil {
				t.Fatal(err)
			}
		}
		if err := pb.Add(0, i); err != nil {
			t.Fatal(err)
		}
	}
	prog := pb.Finish()
	if prog.NumWPartitions() != 4 {
		t.Fatalf("fixture has %d w-partitions, want 4", prog.NumWPartitions())
	}
	lay, err := Build(prog, []kernels.Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	want := kernels.PackedStream{Val: a.X, Len: make([]int32, n), Pos: make([]int32, n)}
	for _, x := range a.I {
		want.Idx = append(want.Idx, int32(x))
	}
	for i := 0; i < n; i++ {
		want.Len[i], want.Pos[i] = int32(a.P[i+1]-a.P[i]), int32(a.P[i])
	}
	if got := lay.Streams[0]; !reflect.DeepEqual(got, &want) {
		t.Fatalf("build differs from the matrix rows in order: %d/%d/%d/%d entries, want %d/%d/%d/%d",
			len(got.Idx), len(got.Val), len(got.Len), len(got.Pos), len(want.Idx), len(want.Val), len(want.Len), len(want.Pos))
	}
}

// TestBuildRejectsUnsupportedKernel: factor kernels have no stable stream to
// pack (they mutate their matrix mid-run) and do not implement PackedKernel.
func TestBuildRejectsUnsupportedKernel(t *testing.T) {
	const n = 60
	a := sparse.Must(sparse.RandomSPD(n, 4, 19))
	lc := a.Lower().ToCSC()
	b := sparse.RandomVec(n, 20)
	y := make([]float64, n)
	k1 := kernels.NewSpIC0CSC(lc)
	k2 := kernels.NewSpTRSVCSC(lc, b, y)

	pb, err := core.NewProgramBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	pb.StartS()
	if err := pb.StartW(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pb.Add(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := pb.Add(1, i); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Build(pb.Finish(), []kernels.Kernel{k1, k2})
	if err == nil {
		t.Fatal("Build accepted a chain with a factor kernel")
	}
	if !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBuildRejectsStaleSource: when one fused kernel overwrites another
// kernel's packed value source during the run, the snapshot would go stale
// mid-execution; Build must refuse such layouts.
func TestBuildRejectsStaleSource(t *testing.T) {
	const n = 60
	a := sparse.Must(sparse.RandomSPD(n, 4, 21))
	work := a.Clone()
	d := kernels.JacobiScaling(a)
	x := sparse.RandomVec(n, 22)
	y := make([]float64, n)
	k1 := kernels.NewDScalCSR(a, d, work) // writes work.X
	k2 := kernels.NewSpMVCSR(work, x, y)  // packs work.X

	pb, err := core.NewProgramBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	pb.StartS()
	if err := pb.StartW(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pb.Add(0, i); err != nil {
			t.Fatal(err)
		}
		if err := pb.Add(1, i); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Build(pb.Finish(), []kernels.Kernel{k1, k2})
	if err == nil {
		t.Fatal("Build accepted a layout whose source is overwritten mid-run")
	}
	if !strings.Contains(err.Error(), "overwrites") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBuildRejectsMissingSegIter: programs without the occurrence-cursor
// metadata (hand-assembled outside ProgramBuilder) cannot align streams.
func TestBuildRejectsMissingSegIter(t *testing.T) {
	const n = 30
	a := sparse.Must(sparse.RandomSPD(n, 4, 23))
	l := a.Lower()
	b := sparse.RandomVec(n, 24)
	y := make([]float64, n)
	k := kernels.NewSpTRSVCSR(l, b, y)

	pb, err := core.NewProgramBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	pb.StartS()
	if err := pb.StartW(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pb.Add(0, i); err != nil {
			t.Fatal(err)
		}
	}
	prog := pb.Finish()
	prog.SegIter = nil
	if _, err := Build(prog, []kernels.Kernel{k}); err == nil {
		t.Fatal("Build accepted a program without SegIter metadata")
	}
}

// TestVerifySumTracksSourceValues: a layout carries the fold of its kernels'
// per-array value checksums — so a caller holding those checksums already
// (sparse.FoldSums) and one hashing the arrays (SourceSum) agree — and VerifySum
// rejects the same pattern holding different numbers.
func TestVerifySumTracksSourceValues(t *testing.T) {
	prog, ks, l := buildGSProgram(t, 120)
	a := ks[1].(*kernels.SpMVPlusCSR).A
	lay, err := Build(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := SourceSum(ks, prog.NumLoops)
	if !ok || sum != lay.Sum {
		t.Fatalf("SourceSum %#x/%v, layout carries %#x", sum, ok, lay.Sum)
	}
	if folded := sparse.FoldSums(sparse.ValueSum(l.X), sparse.ValueSum(a.X)); folded != lay.Sum {
		t.Fatalf("FoldSums of the arrays' ValueSum %#x, layout carries %#x", folded, lay.Sum)
	}
	if err := lay.VerifySum(sum); err != nil {
		t.Fatalf("unchanged sources rejected: %v", err)
	}
	a.X[3] *= 2
	if changed, _ := SourceSum(ks, prog.NumLoops); lay.VerifySum(changed) == nil {
		t.Fatal("changed source values accepted")
	}
}
