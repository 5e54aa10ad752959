package relayout_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
)

// privateFill is loop l's stream as a layout without sharing writes it: every
// occurrence's operand run copied from Operands, segment by segment.
func privateFill(prog *core.Program, k kernels.PackedKernel, l int) *kernels.PackedStream {
	s := &kernels.PackedStream{}
	for g := 0; g < prog.NumSegments(); g++ {
		if int(prog.SegLoop[g]) != l {
			continue
		}
		for _, v := range prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]] {
			idx, val, pos := k.Operands(int(v & kernels.IterMask))
			for _, x := range idx {
				s.Idx = append(s.Idx, int32(x))
			}
			s.Val = append(s.Val, val...)
			s.Len = append(s.Len, int32(len(idx)))
			if pos >= 0 {
				s.Pos = append(s.Pos, int32(pos))
			}
		}
	}
	return s
}

// checkSharing asserts what a layout shares: every loop that does not scatter
// holds exactly its private fill, whether or not its stream is another loop's;
// no scatter or Pos loop shares, in either direction; a shared stream is an
// earlier loop's own; and Words counts each distinct stream once. It returns
// how many loops read another loop's stream.
func checkSharing(t *testing.T, name string, prog *core.Program, lay *relayout.Layout, ks []kernels.Kernel) int {
	t.Helper()
	shared, words := 0, 0
	for l, s := range lay.Streams {
		_, scatters := ks[l].(kernels.SpillScatterer)
		own := lay.Owner(l)
		if own != l {
			shared++
			if own > l || lay.Owner(own) != own {
				t.Fatalf("%s: loop %d reads loop %d's stream, which is not an earlier loop's own", name, l, own)
			}
			_, ownScatters := ks[own].(kernels.SpillScatterer)
			if scatters || ownScatters || len(s.Pos) > 0 {
				t.Fatalf("%s: loop %d shares loop %d's stream, but a scatter or Pos stream never shares", name, l, own)
			}
		} else {
			words += s.Words()
		}
		if scatters {
			continue // its stream carries the redirects
		}
		want := privateFill(prog, ks[l].(kernels.PackedKernel), l)
		if !slices.Equal(s.Idx, want.Idx) || !slices.Equal(s.Len, want.Len) || !slices.Equal(s.Pos, want.Pos) ||
			!slices.EqualFunc(s.Val, want.Val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: loop %d's stream (owner %d) is not its private fill", name, l, own)
		}
	}
	if lay.Words() != words {
		t.Fatalf("%s: Words %d, the distinct streams hold %d", name, lay.Words(), words)
	}
	return shared
}

// dscalFixture is TestLayoutGolden's DSCAL loop: the one kernel with a Pos
// stream, compiled from an LBC partitioning at four threads.
func dscalFixture(t *testing.T, a *sparse.CSR) (*core.Program, []kernels.Kernel) {
	t.Helper()
	dscal := kernels.NewDScalCSR(a, kernels.JacobiScaling(a), a.Clone())
	p, err := lbc.Schedule(dscal.DAG(), 4, lbc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.CompilePartitioned([]kernels.Kernel{dscal}, p)
	if err != nil {
		t.Fatal(err)
	}
	return r.Program(), []kernels.Kernel{dscal}
}

// TestStreamSharing: on every golden fixture that packs, the two solves of
// TRSV-TRSV read one stream, so its layout is one loop's words; TRSV-MV,
// MV-MV, the Gauss-Seidel and CG chains and DSCAL share nothing. Every stream,
// shared or not, holds its loop's private fill.
func TestStreamSharing(t *testing.T) {
	check := func(name string, prog *core.Program, ks []kernels.Kernel) {
		lay, err := relayout.Build(prog, ks)
		if err != nil {
			return // the factorization chains do not pack
		}
		shared := checkSharing(t, name, prog, lay, ks)
		if strings.Contains(name, "/TRSV-TRSV/") {
			if shared != 1 || lay.Streams[0] != lay.Streams[1] {
				t.Fatalf("%s: %d loops share, want loop 1 reading loop 0's stream", name, shared)
			}
			if lay.Words() != lay.Streams[0].Words() {
				t.Fatalf("%s: Words %d, one loop's stream is %d", name, lay.Words(), lay.Streams[0].Words())
			}
			return
		}
		if shared != 0 {
			t.Fatalf("%s: %d loops share a stream, want none", name, shared)
		}
	}
	packed := 0
	scheduleFixtures(t, func(name string, in *combos.Instance, threads int) {
		prog := fusedProgram(t, in.Loops, in.Reuse, len(in.Kernels), threads)
		if _, err := relayout.Build(prog, in.Kernels); err == nil {
			packed++
		}
		check(name, prog, in.Kernels)
	})
	if packed != 16 {
		t.Fatalf("%d fixtures packed, want the 12 pure-combination ones, two GS and two CG chains", packed)
	}
	a, err := suite.Parse("lap2d:40", true)
	if err != nil {
		t.Fatal(err)
	}
	prog, ks := dscalFixture(t, a)
	check("lap2d:40/DSCAL-CSR/threads=4", prog, ks)
}
