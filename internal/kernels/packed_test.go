package kernels

import (
	"testing"

	"sparsefusion/internal/sparse"
)

// appendRun appends iteration i's operand run to s as one occurrence, the
// way relayout.Build fills a stream in execution order.
func appendRun(s *PackedStream, k PackedKernel, i int) {
	idx, val, pos := k.Operands(i)
	for _, x := range idx {
		s.Idx = append(s.Idx, int32(x))
	}
	s.Val = append(s.Val, val...)
	s.Len = append(s.Len, int32(len(idx)))
	if pos >= 0 {
		s.Pos = append(s.Pos, int32(pos))
	}
}

// packStream packs iterations [0,n) in order, the way relayout.Build packs a
// single-segment schedule.
func packStream(k PackedKernel, n int) *PackedStream {
	s := &PackedStream{}
	for i := 0; i < n; i++ {
		appendRun(s, k, i)
	}
	return s
}

// packedKernelCases builds one instance of every packed-capable kernel plus a
// snapshot closure over its output, mirroring TestRunManyMatchesRun.
func packedKernelCases(n int, seed int64) []struct {
	name string
	mk   func() (Kernel, func() []float64)
} {
	a := sparse.Must(sparse.RandomSPD(n, 5, seed))
	l := a.Lower()
	lc := l.ToCSC()
	ac := a.ToCSC()
	b := sparse.RandomVec(n, seed+1)
	d := JacobiScaling(a)
	return []struct {
		name string
		mk   func() (Kernel, func() []float64)
	}{
		{"spmv-csr", func() (Kernel, func() []float64) {
			y := make([]float64, n)
			k := NewSpMVCSR(a, b, y)
			return k, func() []float64 { return append([]float64(nil), y...) }
		}},
		{"spmv-csc", func() (Kernel, func() []float64) {
			y := make([]float64, n)
			k := NewSpMVCSC(ac, b, y)
			return k, func() []float64 { return append([]float64(nil), y...) }
		}},
		{"spmv-plus-csr", func() (Kernel, func() []float64) {
			y := make([]float64, n)
			k := NewSpMVPlusCSR(a, b, b, y)
			return k, func() []float64 { return append([]float64(nil), y...) }
		}},
		{"sptrsv-csr", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVCSR(l, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-csc", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVCSC(lc, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-trans-csc", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVTransCSC(lc, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-unitlower-csr", func() (Kernel, func() []float64) {
			x := make([]float64, n)
			k := NewSpTRSVUnitLowerCSR(a, b, x)
			return k, func() []float64 { return append([]float64(nil), x...) }
		}},
		{"dscal-csr", func() (Kernel, func() []float64) {
			work := a.Clone()
			k := NewDScalCSR(work, d, work)
			return k, func() []float64 { return append([]float64(nil), work.X...) }
		}},
		{"dscal-csc", func() (Kernel, func() []float64) {
			work := ac.Clone()
			k := NewDScalCSC(work, d, work)
			return k, func() []float64 { return append([]float64(nil), work.X...) }
		}},
	}
}

// TestRunManyPackedMatchesRun drives every PackedKernel against a stream
// packed in execution order and asserts bit-identical results vs the
// per-iteration Run path; the stream is consumed in two batches to exercise
// the mid-stream entry/occurrence cursors.
func TestRunManyPackedMatchesRun(t *testing.T) {
	const n = 200
	for _, tc := range packedKernelCases(n, 71) {
		k, snap := tc.mk()
		RunSeq(k)
		want := snap()

		pr, ok := k.(PackedKernel)
		if !ok {
			t.Fatalf("%s: kernel does not implement PackedKernel", tc.name)
		}
		s := packStream(pr, n)
		if s.Occurrences() != n {
			t.Fatalf("%s: packed %d occurrences, want %d", tc.name, s.Occurrences(), n)
		}

		k.Prepare()
		iters := packAll(MaxLoops-1, n)
		half := n / 2
		ent := 0
		for o := 0; o < half; o++ {
			ent += int(s.Len[o])
		}
		pr.RunManyPacked(iters[:half], s, 0, 0)
		pr.RunManyPacked(iters[half:], s, ent, half)
		got := snap()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: RunManyPacked diverges at %d: %v != %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestPackedSourceSnapshotsReplayValues asserts DSCAL streams pack the
// pristine input snapshot even after an in-place run has overwritten A.X —
// the stale-value hazard the a0 snapshot exists to avoid.
func TestPackedSourceSnapshotsReplayValues(t *testing.T) {
	const n = 40
	a := sparse.Must(sparse.RandomSPD(n, 4, 73))
	d := JacobiScaling(a)
	k := NewDScalCSR(a, d, a) // in place
	RunSeq(k)
	want := snapshotRun(k, func() []float64 { return append([]float64(nil), a.X...) })

	// A.X now holds scaled values; packing must still see the originals.
	s := packStream(k, n)
	k.Prepare()
	k.RunManyPacked(packAll(0, n), s, 0, 0)
	got := append([]float64(nil), a.X...)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packed in-place DSCAL diverges at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// snapshotRun reruns k sequentially and returns the snapshot, leaving the
// kernel in a freshly-run state.
func snapshotRun(k Kernel, snap func() []float64) []float64 {
	RunSeq(k)
	return snap()
}

// TestFusePackedPairMatchesFusePair drives every specialized pair through the
// packed fused body on the same mixed stream as the unpacked fused body and
// asserts bit-identical results.
func TestFusePackedPairMatchesFusePair(t *testing.T) {
	const n = 150
	a := sparse.Must(sparse.RandomSPD(n, 4, 75))
	l := a.Lower()
	lc := l.ToCSC()
	ac := a.ToCSC()
	b := sparse.RandomVec(n, 76)

	type pair struct {
		name   string
		k1, k2 Kernel
		snap   func() []float64
	}
	mkPairs := func() []pair {
		var ps []pair
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"trsv-mv", NewSpTRSVCSR(l, b, y), NewSpMVCSC(ac, y, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"trsv-trsv", NewSpTRSVCSR(l, b, y), NewSpTRSVCSR(l, y, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		{
			t1, x1 := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"mvplus-trsv", NewSpMVPlusCSR(a, b, b, t1), NewSpTRSVCSR(l, t1, x1),
				func() []float64 { return append([]float64(nil), x1...) }})
		}
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"trsv-mvplus", NewSpTRSVCSR(l, b, y), NewSpMVPlusCSR(a, y, b, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		{
			y, z := make([]float64, n), make([]float64, n)
			ps = append(ps, pair{"fwd-bwd", NewSpTRSVCSC(lc, b, y), NewSpTRSVTransCSC(lc, y, z),
				func() []float64 { return append([]float64(nil), z...) }})
		}
		return ps
	}

	for _, p := range mkPairs() {
		unpacked, fn, ok := FusePair(p.k1, p.k2, 2)
		if !ok {
			t.Fatalf("%s: missing pair body", p.name)
		}

		// Dependency-safe mixed stream (all producers of a half before its
		// consumers), same construction as TestFusePair.
		var stream []int32
		half := n / 2
		safe := p.name == "trsv-trsv" || p.name == "trsv-mv"
		if safe {
			for i := 0; i < half; i++ {
				stream = append(stream, PackIter(2, i))
			}
			for i := half; i < n; i++ {
				stream = append(stream, PackIter(2, i), PackIter(3, i-half))
			}
			for i := n - half; i < n; i++ {
				stream = append(stream, PackIter(3, i))
			}
		} else {
			for i := 0; i < n; i++ {
				stream = append(stream, PackIter(2, i))
			}
			for i := 0; i < n; i++ {
				stream = append(stream, PackIter(3, i))
			}
		}

		// Streams are packed per loop in the order the mixed stream visits
		// that loop's iterations, exactly as relayout.Build would.
		s1, s2 := &PackedStream{}, &PackedStream{}
		for _, v := range stream {
			loop, idx := UnpackIter(v)
			if loop == 2 {
				appendRun(s1, p.k1.(PackedKernel), idx)
			} else {
				appendRun(s2, p.k2.(PackedKernel), idx)
			}
		}

		p.k1.Prepare()
		p.k2.Prepare()
		unpacked(stream)
		want := p.snap()

		p.k1.Prepare()
		p.k2.Prepare()
		fn(stream, s1, s2, 0, 0, 0, 0)
		got := p.snap()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: packed pair diverges at %d: %v != %v", p.name, i, got[i], want[i])
			}
		}
	}
}

// TestFusePairAllCombos drives both of FusePair's bodies across the full
// cross product of batchable kernel types with independent operands: every
// specialized combination must match running the two kernels unfused on
// either rung, and every other combination must report ok=false.
func TestFusePairAllCombos(t *testing.T) {
	const n = 120
	a1 := sparse.Must(sparse.RandomSPD(n, 4, 81))
	a2 := sparse.Must(sparse.RandomSPD(n, 4, 82))
	l1, l2 := a1.Lower(), a2.Lower()

	// Each builder returns a fresh kernel over its own operands (independent
	// of every other kernel, so any interleaving is dependency-safe across
	// kernels) plus a snapshot of its output.
	type entry struct {
		name string
		mk   func(seed int64) (Kernel, func() []float64)
	}
	entries := []entry{
		{"spmv-csr", func(seed int64) (Kernel, func() []float64) {
			x, y := sparse.RandomVec(n, seed), make([]float64, n)
			return NewSpMVCSR(a1, x, y), func() []float64 { return append([]float64(nil), y...) }
		}},
		{"spmv-csc", func(seed int64) (Kernel, func() []float64) {
			x, y := sparse.RandomVec(n, seed), make([]float64, n)
			return NewSpMVCSC(a2.ToCSC(), x, y), func() []float64 { return append([]float64(nil), y...) }
		}},
		{"spmv-plus-csr", func(seed int64) (Kernel, func() []float64) {
			x, b, y := sparse.RandomVec(n, seed), sparse.RandomVec(n, seed+1), make([]float64, n)
			return NewSpMVPlusCSR(a1, x, b, y), func() []float64 { return append([]float64(nil), y...) }
		}},
		{"sptrsv-csr", func(seed int64) (Kernel, func() []float64) {
			b, x := sparse.RandomVec(n, seed), make([]float64, n)
			return NewSpTRSVCSR(l1, b, x), func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-csc", func(seed int64) (Kernel, func() []float64) {
			b, x := sparse.RandomVec(n, seed), make([]float64, n)
			return NewSpTRSVCSC(l1.ToCSC(), b, x), func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-trans-csc", func(seed int64) (Kernel, func() []float64) {
			b, x := sparse.RandomVec(n, seed), make([]float64, n)
			return NewSpTRSVTransCSC(l2.ToCSC(), b, x), func() []float64 { return append([]float64(nil), x...) }
		}},
		{"sptrsv-unitlower-csr", func(seed int64) (Kernel, func() []float64) {
			b, x := sparse.RandomVec(n, seed), make([]float64, n)
			return NewSpTRSVUnitLowerCSR(a1, b, x), func() []float64 { return append([]float64(nil), x...) }
		}},
		{"dscal-csr", func(seed int64) (Kernel, func() []float64) {
			out := a1.Clone()
			return NewDScalCSR(a1, JacobiScaling(a1), out), func() []float64 { return append([]float64(nil), out.X...) }
		}},
		{"dscal-csc", func(seed int64) (Kernel, func() []float64) {
			ac := a2.ToCSC()
			out := ac.Clone()
			return NewDScalCSC(ac, JacobiScaling(a2), out), func() []float64 { return append([]float64(nil), out.X...) }
		}},
	}

	// The specializations FusePair promises: the paper's Table 1 pairs plus
	// the Gauss-Seidel/PCG feeds.
	specialized := map[[2]string]bool{
		{"sptrsv-csr", "spmv-csc"}:         true,
		{"sptrsv-csr", "spmv-plus-csr"}:    true,
		{"sptrsv-csr", "sptrsv-csr"}:       true,
		{"spmv-plus-csr", "sptrsv-csr"}:    true,
		{"sptrsv-csc", "sptrsv-trans-csc"}: true,
	}

	for _, e1 := range entries {
		for _, e2 := range entries {
			name := e1.name + "+" + e2.name
			k1, snap1 := e1.mk(91)
			k2, snap2 := e2.mk(93)
			fn, pfn, ok := FusePair(k1, k2, 0)
			wantOK := specialized[[2]string{e1.name, e2.name}]
			if ok != wantOK {
				t.Fatalf("%s: FusePair ok=%v, want %v", name, ok, wantOK)
			}
			if !ok {
				continue
			}

			// Reference: both kernels unfused, k1 fully before k2.
			RunSeq(k1)
			RunSeq(k2)
			want1, want2 := snap1(), snap2()

			// Fused: alternate the two loops (each loop's own iterations stay
			// in order, and the operands are independent, so any interleaving
			// is dependency-safe).
			var stream []int32
			for i := 0; i < n; i++ {
				stream = append(stream, PackIter(0, i), PackIter(1, i))
			}
			k1.Prepare()
			k2.Prepare()
			fn(stream)
			if got := snap1(); !bitEqual(got, want1) {
				t.Fatalf("%s: fused pair changed k1's output", name)
			}
			if got := snap2(); !bitEqual(got, want2) {
				t.Fatalf("%s: fused pair changed k2's output", name)
			}

			// Packed fused: same stream against per-loop packed streams.
			s1, s2 := &PackedStream{}, &PackedStream{}
			for _, v := range stream {
				loop, idx := UnpackIter(v)
				if loop == 0 {
					appendRun(s1, k1.(PackedKernel), idx)
				} else {
					appendRun(s2, k2.(PackedKernel), idx)
				}
			}
			k1.Prepare()
			k2.Prepare()
			pfn(stream, s1, s2, 0, 0, 0, 0)
			if got := snap1(); !bitEqual(got, want1) {
				t.Fatalf("%s: packed fused pair changed k1's output", name)
			}
			if got := snap2(); !bitEqual(got, want2) {
				t.Fatalf("%s: packed fused pair changed k2's output", name)
			}
		}
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPackIterCheckedRejectsOverflow covers the validating pack: in-range
// values round-trip, out-of-range loop tags and iteration indices error
// instead of silently truncating.
func TestPackIterCheckedRejectsOverflow(t *testing.T) {
	v, err := PackIterChecked(MaxLoops-1, MaxIterations-1)
	if err != nil {
		t.Fatalf("in-range pack failed: %v", err)
	}
	if loop, idx := UnpackIter(v); loop != MaxLoops-1 || idx != MaxIterations-1 {
		t.Fatalf("round trip gave (%d,%d)", loop, idx)
	}
	for _, tc := range [][2]int{
		{MaxLoops, 0}, {-1, 0}, {0, MaxIterations}, {0, -1}, {MaxLoops + 7, MaxIterations + 7},
	} {
		if _, err := PackIterChecked(tc[0], tc[1]); err == nil {
			t.Fatalf("PackIterChecked(%d,%d) accepted an out-of-range value", tc[0], tc[1])
		}
	}
}
