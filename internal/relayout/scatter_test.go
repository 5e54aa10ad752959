package relayout_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/order"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// The writer-exclusivity analysis under test. CheckExclusive is the oracle:
// it shares no code with the analysis and re-derives every writer set from
// the program and the source matrices.

// scatterChain builds the scatter chains over a: TRSV-MV (SpTRSV-CSR feeding
// SpMV-CSC) or, with three loops, SpTRSV-CSR -> SpTRSV-CSC -> SpMV-CSC.
func scatterChain(a *sparse.CSR, three bool) (*core.Loops, []kernels.Kernel) {
	n := a.Rows
	l, ac := a.Lower(), a.ToCSC()
	b := sparse.RandomVec(n, 3)
	y, z, out := make([]float64, n), make([]float64, n), make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, b, y)
	if !three {
		k2 := kernels.NewSpMVCSC(ac, y, out)
		return &core.Loops{
			G: []*dag.Graph{k1.DAG(), k2.DAG()},
			F: []*sparse.CSR{core.FTrsvToMVCSC(ac)},
		}, []kernels.Kernel{k1, k2}
	}
	k2 := kernels.NewSpTRSVCSC(l.ToCSC(), y, z)
	k3 := kernels.NewSpMVCSC(ac, z, out)
	return &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG(), k3.DAG()},
		F: []*sparse.CSR{core.FDiagonal(n), core.FTrsvToMVCSC(ac)},
	}, []kernels.Kernel{k1, k2, k3}
}

// patterns are a random lower-triangular pattern and a power-law one whose
// hub rows nearly every column updates; the latter nested-dissection
// reordered, without which its schedule has no width.
func patterns(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	pl := sparse.Must(sparse.PowerLawSPD(700, 3, 42))
	perm, err := order.NestedDissection(pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR{
		"random":   sparse.Must(sparse.RandomSPD(700, 6, 41)),
		"powerlaw": sparse.Must(sparse.PermuteSym(pl, perm)),
	}
}

func compile(t *testing.T, loops *core.Loops, nLoops, threads int, reuse float64) *core.Program {
	t.Helper()
	sched, err := core.ICO(loops, core.Params{Threads: threads, ReuseRatio: reuse, LBC: lbc.Params{InitialCut: 3, Agg: 8}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileSchedule(sched, nLoops)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestCheckExclusive(t *testing.T) {
	wide, redirected := 0, 0
	for pname, a := range patterns(t) {
		for _, three := range []bool{false, true} {
			for _, threads := range []int{2, 3, 4, 8} {
				for _, reuse := range []float64{0.5, 1.5} { // separated, interleaved
					name := fmt.Sprintf("%s three=%v threads=%d reuse=%v", pname, three, threads, reuse)
					loops, ks := scatterChain(a, three)
					prog := compile(t, loops, len(ks), threads, reuse)
					lay, err := relayout.Build(prog, ks)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := relayout.CheckExclusive(prog, lay, ks); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if prog.MaxWidth > 1 {
						wide++
					}
					for l, sc := range lay.Scatter {
						_, scatters := ks[l].(kernels.SpillScatterer)
						if (sc != nil) != scatters {
							t.Fatalf("%s: loop %d scatter record %v, kernel scatters %v", name, l, sc != nil, scatters)
						}
						if sc == nil {
							continue
						}
						redirected += sc.Redirected
						if prog.MaxWidth == 1 && (sc.Redirected != 0 || sc.Slots != 0 || len(sc.FoldTarget) != 0) {
							t.Fatalf("%s: width-1 program redirected %d updates into %d slots", name, sc.Redirected, sc.Slots)
						}
					}

					// Equal programs give byte-equal layouts.
					again, err := relayout.Build(prog, ks)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again.Streams, lay.Streams) || !reflect.DeepEqual(again.Scatter, lay.Scatter) ||
						!reflect.DeepEqual(again.SegEnt, lay.SegEnt) || again.Sum != lay.Sum {
						t.Fatalf("%s: second build differs from the first", name)
					}
				}
			}
		}
	}
	if wide == 0 || redirected == 0 {
		t.Fatalf("%d wide programs, %d redirected updates: the fixtures exercise nothing", wide, redirected)
	}
}

// TestBuildExactCapacity: the streams are sized before they are filled, so
// every array is allocated once at its final length.
func TestBuildExactCapacity(t *testing.T) {
	loops, ks := scatterChain(patterns(t)["random"], true)
	prog := compile(t, loops, len(ks), 4, 0.5)
	lay, err := relayout.Build(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	for l, s := range lay.Streams {
		if cap(s.Idx) != len(s.Idx) || cap(s.Val) != len(s.Val) || cap(s.Len) != len(s.Len) || cap(s.Pos) != len(s.Pos) {
			t.Fatalf("loop %d: slack capacity: Idx %d/%d Val %d/%d Len %d/%d Pos %d/%d", l,
				len(s.Idx), cap(s.Idx), len(s.Val), cap(s.Val), len(s.Len), cap(s.Len), len(s.Pos), cap(s.Pos))
		}
		if len(s.Idx) == 0 || len(s.Val) != len(s.Idx) {
			t.Fatalf("loop %d: %d indices, %d values", l, len(s.Idx), len(s.Val))
		}
	}
}

// TestCheckExclusiveDetects corrupts a correct layout in each way the
// contract forbids and expects the checker to name it.
func TestCheckExclusiveDetects(t *testing.T) {
	loops, ks := scatterChain(patterns(t)["powerlaw"], false)
	prog := compile(t, loops, len(ks), 4, 0.5)
	const loop = 1 // the SpMV-CSC
	build := func() *relayout.Layout {
		lay, err := relayout.Build(prog, ks)
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	// s is an s-partition with at least two fold entries of different
	// w-partitions: its first and last slot.
	lay := build()
	sc := lay.Scatter[loop]
	s := -1
	for i := 0; i < prog.NumSPartitions(); i++ {
		if sc.FoldOff[i+1]-sc.FoldOff[i] >= 2 {
			s = i
			break
		}
	}
	if s < 0 {
		t.Fatal("no s-partition with two fold entries")
	}
	first, last := int32(0), sc.FoldOff[s+1]-sc.FoldOff[s]-1
	// entriesOf lists the stream positions redirected to slot of s-partition s.
	entriesOf := func(lay *relayout.Layout, slot int32) []int {
		var at []int
		st := lay.Streams[loop]
		for w := prog.SOff[s]; w < prog.SOff[s+1]; w++ {
			for g := prog.WSeg[w]; g < prog.WSeg[w+1]; g++ {
				if int(prog.SegLoop[g]) != loop {
					continue
				}
				ent, o0 := int(lay.SegEnt[g]), prog.SegIter[g]
				end := ent
				for _, n := range st.Len[o0 : o0+prog.SegOff[g+1]-prog.SegOff[g]] {
					end += int(n)
				}
				for c := ent; c < end; c++ {
					if st.Idx[c] == ^slot {
						at = append(at, c)
					}
				}
			}
		}
		return at
	}

	cases := []struct {
		name    string
		corrupt func(lay *relayout.Layout)
		want    string
	}{
		{"shared target written directly", func(lay *relayout.Layout) {
			sc := lay.Scatter[loop]
			c := entriesOf(lay, first)[0]
			lay.Streams[loop].Idx[c] = sc.FoldTarget[sc.FoldOff[s]+first]
		}, "updates it directly"},
		{"slot with two writers", func(lay *relayout.Layout) {
			// Two slots of one target belong to two w-partitions: send the
			// users of the later one to the earlier one.
			sc := lay.Scatter[loop]
			slotOf := map[int32]int32{}
			for i, tgt := range sc.FoldTarget[sc.FoldOff[s]:sc.FoldOff[s+1]] {
				if a, seen := slotOf[tgt]; seen {
					for _, c := range entriesOf(lay, int32(i)) {
						lay.Streams[loop].Idx[c] = ^a
					}
					return
				}
				slotOf[tgt] = int32(i)
			}
			t.Fatal("no target with two slots")
		}, "written by w-partitions"},
		{"fold entries out of w order", func(lay *relayout.Layout) {
			sc := lay.Scatter[loop]
			a, b := entriesOf(lay, first), entriesOf(lay, last)
			for _, c := range a {
				lay.Streams[loop].Idx[c] = ^last
			}
			for _, c := range b {
				lay.Streams[loop].Idx[c] = ^first
			}
			f := sc.FoldTarget[sc.FoldOff[s]:]
			f[first], f[last] = f[last], f[first]
		}, "follows w-partition"},
		{"slot folds into the wrong target", func(lay *relayout.Layout) {
			sc := lay.Scatter[loop]
			sc.FoldTarget[sc.FoldOff[s]+first]++
		}, "which folds into"},
	}
	for _, c := range cases {
		lay := build()
		c.corrupt(lay)
		err := relayout.CheckExclusive(prog, lay, ks)
		if err == nil {
			t.Fatalf("%s: not detected", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: detected as %q, want it to mention %q", c.name, err, c.want)
		}
	}
}
