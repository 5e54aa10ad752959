package core

import (
	"fmt"
	"testing"
	"time"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/sparse"
)

// buildState places a two-loop problem and returns the state before step (ii).
func buildState(t *testing.T, loops *Loops, r int) *state {
	t.Helper()
	st, err := place(loops, Params{Threads: r, LBC: lbc.Params{InitialCut: 2, Agg: 4}}, false, &InspectorTimings{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// chainPair builds two chained loops: loop 0 is a chain 0->1->...->n-1,
// loop 1 is parallel, F diagonal. Placement pairs every loop-1 iteration
// with its producer.
func chainPair(t *testing.T, n int) *Loops {
	t.Helper()
	edges := make([]dag.Edge, n-1)
	for i := range edges {
		edges[i] = dag.Edge{Src: i, Dst: i + 1}
	}
	g1, err := dag.FromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Loops{
		G: []*dag.Graph{g1, dag.Parallel(n, nil)},
		F: []*sparse.CSR{FDiagonal(n)},
	}
}

func TestMergeFoldsChainWindows(t *testing.T) {
	// A pure chain has no parallelism; LBC cuts it into windows and merging
	// must fold them back into few barriers (they are zero-slack, single-
	// predecessor partitions - the merge rule's exact target).
	loops := chainPair(t, 40)
	st := buildState(t, loops, 3)
	before := st.numS()
	st.merge()
	after := st.numS()
	if after > before {
		t.Fatalf("merge grew s-partitions: %d -> %d", before, after)
	}
	if after > 2 {
		t.Fatalf("chain not folded: %d barriers remain", after)
	}
	// Positions must stay consistent with costs.
	if err := costsMatchPositions(st); err != nil {
		t.Fatal(err)
	}
	if err := validState(st); err != nil {
		t.Fatal(err)
	}
}

// costsMatchPositions checks the cost table against the weights the
// position tables place in every (s, w).
func costsMatchPositions(st *state) error {
	want := make([][]int, len(st.cost))
	for s := range want {
		want[s] = make([]int, len(st.cost[s]))
	}
	for k, g := range st.loops.G {
		for i := 0; i < g.N; i++ {
			s, w := st.posS[k][i], st.posW[k][i]
			if int(s) >= len(want) || int(w) >= len(want[s]) {
				return errf("iteration (%d,%d) at (%d,%d) outside the cost table", k, i, s, w)
			}
			want[s][w] += g.Weight(i)
		}
	}
	for s := range want {
		for w := range want[s] {
			if want[s][w] != st.cost[s][w] {
				return errf("cost[%d][%d] = %d, placed weight %d", s, w, st.cost[s][w], want[s][w])
			}
		}
	}
	return nil
}

// validState replays the placement invariant over the state's dependence
// lists: every dependency's producer sits at a strictly earlier s-partition
// or the same (s, w).
func validState(st *state) error {
	for k, g := range st.loops.G {
		d := &st.deps[k]
		for i := 0; i < g.N; i++ {
			s, w := st.posS[k][i], st.posW[k][i]
			check := func(pk int, preds []int) error {
				for _, p := range preds {
					ps, pw := st.posS[pk][p], st.posW[pk][p]
					if ps > s || (ps == s && pw != w) {
						return errf("dep (%d,%d) -> (%d,%d) at (%d,%d) vs (%d,%d)", pk, p, k, i, ps, pw, s, w)
					}
				}
				return nil
			}
			if err := check(k, d.preds(i)); err != nil {
				return err
			}
			if err := check(k-1, d.crossPreds(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func TestSlackPreservesPlacementInvariant(t *testing.T) {
	loops := comboRandomF(5, 150)
	st := buildState(t, loops, 4)
	st.merge()
	st.slackBalance()
	if err := validState(st); err != nil {
		t.Fatal(err)
	}
}

func TestPackProducesAllIterations(t *testing.T) {
	loops := comboCDCD(13, 120)
	st := buildState(t, loops, 4)
	st.merge()
	st.slackBalance()
	for _, reuse := range []float64{0.5, 2.0} {
		sched := st.pack(reuse)
		if sched.NumIterations() != loops.TotalIterations() {
			t.Fatalf("reuse %v: packed %d of %d", reuse, sched.NumIterations(), loops.TotalIterations())
		}
		if err := loops.Validate(sched); err != nil {
			t.Fatalf("reuse %v: %v", reuse, err)
		}
	}
}

func TestAssignFreeContiguity(t *testing.T) {
	// Consecutive free placements must stay in one slot per granule.
	loops := chainPair(t, 4)
	st := newState(Params{Threads: 4}, 4, 4)
	st.loops = loops
	st.ensureS(0)
	for i := 0; i < stickyGranule; i++ {
		st.assignFree(1, i%4, 0)
	}
	// Count distinct w used (re-assignments of the same iterations are fine
	// for this structural check).
	if len(st.cost[0]) > 1 && st.cost[0][0] == 0 {
		t.Fatal("sticky filling skipped the first slot")
	}
	used := 0
	for _, c := range st.cost[0] {
		if c > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("one granule spread across %d slots", used)
	}
}

// TestTimingsChargeLBCToHead stalls the head LBC run and checks which phase
// absorbs the stall: Head, which times the run, and not Setup, which runs
// beside it in the same parallel stage. The phases must still account for
// the call's wall time. Both the forward and the reversed-head paths run.
func TestTimingsChargeLBCToHead(t *testing.T) {
	const stall = 100 * time.Millisecond
	defer func(f func(*dag.Graph, *dag.Graph, []int32, int, lbc.Params) *partition.Partitioning) {
		headSchedule = f
	}(headSchedule)
	run := headSchedule
	headSchedule = func(g, tg *dag.Graph, lvl []int32, r int, p lbc.Params) *partition.Partitioning {
		time.Sleep(stall)
		return run(g, tg, lvl, r, p)
	}
	for name, loops := range map[string]*Loops{"forward": comboCDPar(3, 200), "reversed": comboCDCD(3, 200)} {
		t0 := time.Now()
		_, tm, err := ICOTimed(loops, testParams(2))
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Head < stall {
			t.Errorf("%s: head %v, below the %v stall of its LBC run", name, tm.Head, stall)
		}
		if tm.Setup >= stall/2 {
			t.Errorf("%s: set-up %v absorbed the %v stall of the head LBC run", name, tm.Setup, stall)
		}
		if tm.Total() > wall || wall-tm.Total() >= stall/2 {
			t.Errorf("%s: phases sum to %v of the call's %v", name, tm.Total(), wall)
		}
	}
}
