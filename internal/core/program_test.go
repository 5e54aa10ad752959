package core

import (
	"bytes"
	"reflect"
	"testing"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

func programLoops(t *testing.T, n int, seed int64) (*Loops, []kernels.Kernel) {
	t.Helper()
	a := sparse.Must(sparse.RandomSPD(n, 5, seed))
	l := a.Lower()
	ac := a.ToCSC()
	x := sparse.RandomVec(n, seed+1)
	y := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, x, y)
	k2 := kernels.NewSpMVCSC(ac, y, z)
	return &Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{FTrsvToMVCSC(ac)},
	}, []kernels.Kernel{k1, k2}
}

// TestCompileScheduleRoundTrip compiles ICO output under both packing
// variants and checks the flat arrays decode back to the exact schedule.
func TestCompileScheduleRoundTrip(t *testing.T) {
	loops, ks := programLoops(t, 300, 41)
	for _, reuse := range []float64{0.5, 1.5} {
		sched, err := ICO(loops, Params{Threads: 4, ReuseRatio: reuse, LBC: lbc.Params{InitialCut: 3, Agg: 8}})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := CompileSchedule(sched, len(ks))
		if err != nil {
			t.Fatal(err)
		}
		if prog.NumSPartitions() != sched.NumSPartitions() {
			t.Fatalf("s-partitions %d != %d", prog.NumSPartitions(), sched.NumSPartitions())
		}
		if prog.NumIterations() != sched.NumIterations() {
			t.Fatalf("iterations %d != %d", prog.NumIterations(), sched.NumIterations())
		}
		if prog.MaxWidth != sched.MaxWidth() {
			t.Fatalf("max width %d != %d", prog.MaxWidth, sched.MaxWidth())
		}
		if prog.Interleaved != sched.Interleaved {
			t.Fatal("interleaved flag lost")
		}
		back := prog.Decompile()
		if !reflect.DeepEqual(back.S, sched.S) {
			t.Fatalf("reuse %v: decompiled schedule differs from source", reuse)
		}
		if !bytes.Equal(back.Bytes(), sched.Bytes()) {
			t.Fatalf("reuse %v: decompiled schedule serializes differently", reuse)
		}
	}
}

// TestProgramSegments checks the segment arrays: contiguous cover of every
// w-partition, uniform loop tag inside each segment, tag change across
// adjacent segments.
func TestProgramSegments(t *testing.T) {
	loops, ks := programLoops(t, 250, 43)
	sched, err := ICO(loops, Params{Threads: 4, ReuseRatio: 1.5, LBC: lbc.Params{InitialCut: 3, Agg: 8}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileSchedule(sched, len(ks))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < prog.NumWPartitions(); w++ {
		g0, g1 := prog.WSeg[w], prog.WSeg[w+1]
		if g0 > g1 {
			t.Fatalf("w%d: segment range inverted", w)
		}
		if g0 == g1 {
			if prog.WOff[w] != prog.WOff[w+1] {
				t.Fatalf("w%d: no segments but %d iterations", w, prog.WOff[w+1]-prog.WOff[w])
			}
			continue
		}
		if prog.SegOff[g0] != prog.WOff[w] || prog.SegOff[g1] != prog.WOff[w+1] {
			t.Fatalf("w%d: segments do not cover the w-partition", w)
		}
		for g := g0; g < g1; g++ {
			if prog.SegOff[g] >= prog.SegOff[g+1] {
				t.Fatalf("segment %d empty", g)
			}
			for _, v := range prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]] {
				if loop, _ := kernels.UnpackIter(v); loop != int(prog.SegLoop[g]) {
					t.Fatalf("segment %d: mixed loop tags", g)
				}
			}
			if g > g0 && prog.SegLoop[g] == prog.SegLoop[g-1] {
				t.Fatalf("segments %d and %d not maximal", g-1, g)
			}
		}
	}
}

func TestCompileScheduleRejectsOverflow(t *testing.T) {
	if _, err := CompileSchedule(&Schedule{}, kernels.MaxLoops+1); err == nil {
		t.Fatal("accepted too many loops")
	}
	s := &Schedule{S: [][][]Iter{{{Iter{0, kernels.MaxIterations}}}}}
	if _, err := CompileSchedule(s, 1); err == nil {
		t.Fatal("accepted an index beyond the packed range")
	}
	s = &Schedule{S: [][][]Iter{{{Iter{5, 0}}}}}
	if _, err := CompileSchedule(s, 2); err == nil {
		t.Fatal("accepted a loop tag beyond the chain length")
	}
}
