package exec

import (
	"math/rand"
	"slices"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// dispatchUnit is what NewRunner decides per dispatch unit: the w-partition,
// the program segments it runs, and whether a fused pair body runs them.
type dispatchUnit struct {
	w, g, end int
	pair      bool
}

// quadraticDispatchTable is the pair-coalescing scan NewRunner started with,
// kept as the reference for the linear one: from every segment it walks to
// the end of the alternating two-loop span again, O(segments²) per
// w-partition when the spans fail the pairRunLimit test.
func quadraticDispatchTable(ks []kernels.Kernel, prog *core.Program) (units []dispatchUnit) {
	for w := 0; w < prog.NumWPartitions(); w++ {
		g1 := int(prog.WSeg[w+1])
		for g := int(prog.WSeg[w]); g < g1; {
			if g+1 < g1 {
				l1, l2 := prog.SegLoop[g], prog.SegLoop[g+1]
				end := g + 2
				for end < g1 && (prog.SegLoop[end] == l1 || prog.SegLoop[end] == l2) {
					end++
				}
				iters := int(prog.SegOff[end] - prog.SegOff[g])
				if iters < (end-g)*pairRunLimit {
					if _, _, ok := kernels.FusePair(ks[l1], ks[l2], int(l1)); ok {
						units = append(units, dispatchUnit{w, g, end, true})
						g = end
						continue
					}
				}
			}
			units = append(units, dispatchUnit{w, g, g + 1, false})
			g++
		}
	}
	return units
}

func assertSameDispatchTable(t *testing.T, label string, ks []kernels.Kernel, prog *core.Program) (pairs int) {
	t.Helper()
	want := quadraticDispatchTable(ks, prog)
	r := NewRunner(ks, prog)
	var got []dispatchUnit
	r.Units(func(w, g, end int, pair bool) {
		got = append(got, dispatchUnit{w, g, end, pair})
		if pair {
			pairs++
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: dispatch table differs from the quadratic scan's (%d vs %d units over %d segments)",
			label, len(got), len(want), prog.NumSegments())
	}
	if cap(r.pairAt) != pairs {
		t.Fatalf("%s: pairAt presized to %d for %d coalesced spans", label, cap(r.pairAt), pairs)
	}
	return pairs
}

// TestNewRunnerDispatchTableMatchesQuadraticScan: on separated and
// interleaved 2-loop programs, on k >= 3 chain programs (the shape
// combos.BuildChain composes; combos imports this package) and on random
// segment sequences, the one-pass span ends give the dispatch table the
// rescanning loop gave.
func TestNewRunnerDispatchTableMatchesQuadraticScan(t *testing.T) {
	pairs := 0
	for name, mk := range combos {
		for _, reuse := range []float64{0.5, 1.5} {
			for _, th := range []int{1, threads} {
				loops, ks, _ := mk(300, 7)
				sched, err := core.ICO(loops, core.Params{Threads: th, ReuseRatio: reuse, LBC: icoParams().LBC})
				if err != nil {
					t.Fatal(err)
				}
				prog, err := core.CompileSchedule(sched, len(ks))
				if err != nil {
					t.Fatal(err)
				}
				pairs += assertSameDispatchTable(t, name, ks, prog)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no 2-loop program coalesced a pair span: the fixtures do not reach the pair path")
	}
	for name, fx := range map[string]*chainFixture{
		"trsv-k3": trsvChain(t, 240, 3),
		"trsv-k5": trsvChain(t, 240, 5),
		"mixed":   mixedChain(t, 300, 32),
	} {
		prog, err := core.CompileSchedule(chainSchedule(t, fx, 4), len(fx.ks))
		if err != nil {
			t.Fatal(err)
		}
		assertSameDispatchTable(t, name, fx.ks, prog)
	}
	// Random run lengths around pairRunLimit over three loops: spans that
	// break on the third loop, pass and fail the limit, and end w-partitions.
	fx := trsvChain(t, 240, 3)
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, err := core.NewProgramBuilder(3)
		if err != nil {
			t.Fatal(err)
		}
		b.StartS()
		for w := rng.Intn(4); w >= 0; w-- {
			if err := b.StartW(); err != nil {
				t.Fatal(err)
			}
			loop := rng.Intn(3)
			for g := rng.Intn(40); g > 0; g-- {
				if rng.Intn(4) == 0 {
					loop = (loop + 1 + rng.Intn(2)) % 3 // any other loop
				} else {
					loop = (loop + 1) % 2 // alternate 0 and 1 (leaves 2 for 0)
				}
				for n := 1 + rng.Intn(2*pairRunLimit); n > 0; n-- {
					if err := b.Add(loop, rng.Intn(240)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		assertSameDispatchTable(t, "random", fx.ks, b.Finish())
	}
}

// TestNewRunnerAllocs bounds runner binding to its tables: the dispatch
// units are counted before they are appended, so a program of thousands of
// segments binds in as many allocations as one of ten.
func TestNewRunnerAllocs(t *testing.T) {
	for _, reuse := range []float64{0.5, 1.5} {
		loops, ks, _ := fusedTrsvTrsv(2000, 7)
		p := icoParams()
		p.ReuseRatio = reuse
		sched, err := core.ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.CompileSchedule(sched, len(ks))
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(5, func() { NewRunner(ks, prog) }); got > 8 {
			t.Fatalf("reuse %v: %.0f allocs per NewRunner over %d segments, want <= 8", reuse, got, prog.NumSegments())
		}
	}
}
