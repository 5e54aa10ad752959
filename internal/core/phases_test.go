package core

import (
	"fmt"
	"testing"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// buildState places a two-loop problem and returns the state before step (ii).
func buildState(t *testing.T, loops *Loops, r int) *state {
	t.Helper()
	st, err := place(loops, Params{Threads: r, LBC: lbc.Params{InitialCut: 2, Agg: 4}}, &InspectorTimings{}, nil, nil)
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
	st.recomputeCosts()
	if err := validState(st); err != nil {
		t.Fatal(err)
	}
}

// validState replays the placement invariant: every dependency's producer
// sits at a strictly earlier s-partition or the same (s, w).
func validState(st *state) error {
	for k, g := range st.loops.G {
		for i := 0; i < g.N; i++ {
			it := Iter{k, i}
			var bad error
			st.loops.forEachPred(st.tg, it, func(pr Iter) {
				ps, pw := st.posS[pr.Loop][pr.Idx], st.posW[pr.Loop][pr.Idx]
				s, w := st.posS[k][i], st.posW[k][i]
				if ps > s || (ps == s && pw != w) {
					bad = errf("dep %+v -> %+v at (%d,%d) vs (%d,%d)", pr, it, ps, pw, s, w)
				}
			})
			if bad != nil {
				return bad
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
		sched, err := st.pack(reuse)
		if err != nil {
			t.Fatal(err)
		}
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
	st := newState(loops, Params{Threads: 4}, nil, nil)
	st.ensureS(0)
	for i := 0; i < stickyGranule; i++ {
		st.assignFree(Iter{1, i % 4}, 0)
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
