package dagp

import (
	"testing"
	"testing/quick"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

func triangularDAG(seed int64, n, deg int) *dag.Graph {
	a := sparse.Must(sparse.RandomSPD(n, deg, seed))
	return dag.FromLowerCSR(a.Lower())
}

func TestPartitionInterval(t *testing.T) {
	g := triangularDAG(1, 300, 5)
	part, err := Partition(g, Params{Parts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !QuotientAcyclic(g, part) {
		t.Fatal("quotient graph has a back edge")
	}
	for _, b := range part {
		if b < 0 || b >= 6 {
			t.Fatalf("part id %d out of range", b)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	g := triangularDAG(2, 500, 4)
	p := 8
	part, err := Partition(g, Params{Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]int, p)
	for v := 0; v < g.N; v++ {
		weights[part[v]] += g.Weight(v)
	}
	avg := float64(g.TotalWeight()) / float64(p)
	for b, w := range weights {
		if float64(w) > 2.5*avg {
			t.Fatalf("part %d weight %d far above average %.0f", b, w, avg)
		}
	}
}

func TestPartitionPropertyAcyclicQuotient(t *testing.T) {
	f := func(seed int64) bool {
		g := triangularDAG(seed, 150, 4)
		part, err := Partition(g, Params{Parts: 5})
		if err != nil {
			return false
		}
		return QuotientAcyclic(g, part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRejectsBadParts(t *testing.T) {
	g := dag.Parallel(10, nil)
	if _, err := Partition(g, Params{Parts: 0}); err == nil {
		t.Fatal("expected error for Parts=0")
	}
}

func TestRefinementReducesOrKeepsCut(t *testing.T) {
	g := triangularDAG(9, 400, 5)
	// Initial partition only (no refinement passes beyond projection).
	partNoRefine, err := Partition(g, Params{Parts: 6, MaxPasses: 1, CoarseTo: g.N + 1})
	if err != nil {
		t.Fatal(err)
	}
	partRefined, err := Partition(g, Params{Parts: 6, MaxPasses: 4, CoarseTo: g.N + 1})
	if err != nil {
		t.Fatal(err)
	}
	if EdgeCut(g, partRefined) > EdgeCut(g, partNoRefine) {
		t.Fatalf("refinement increased cut: %d > %d",
			EdgeCut(g, partRefined), EdgeCut(g, partNoRefine))
	}
}

func TestCoarsenPreservesWeightAndAcyclicity(t *testing.T) {
	g := triangularDAG(4, 200, 4)
	coarse, m, shrunk := coarsen(g)
	if !shrunk {
		t.Skip("no safe edges found")
	}
	if coarse.N >= g.N {
		t.Fatal("coarsening did not shrink")
	}
	if coarse.TotalWeight() != g.TotalWeight() {
		t.Fatalf("weight changed: %d -> %d", g.TotalWeight(), coarse.TotalWeight())
	}
	if !coarse.IsAcyclic() {
		t.Fatal("coarse graph has a cycle")
	}
	for v := 0; v < g.N; v++ {
		if m[v] < 0 || m[v] >= coarse.N {
			t.Fatalf("bad mapping for %d: %d", v, m[v])
		}
	}
}

func TestScheduleValid(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		g := triangularDAG(seed, 250, 5)
		p, err := Schedule(g, 4, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestScheduleOnJointDAG(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(120, 4, 21))
	g1 := dag.FromLowerCSR(a.Lower())
	g2 := dag.Parallel(120, nil)
	var ts []sparse.Triplet
	for i := 0; i < 120; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
	}
	f, _ := sparse.FromTriplets(120, 120, ts)
	joint, err := dag.JointChain([]*dag.Graph{g1, g2}, []*sparse.CSR{f})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(joint, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(joint); err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != joint.N {
		t.Fatalf("scheduled %d of %d", p.NumVertices(), joint.N)
	}
}

func TestScheduleParallelLoop(t *testing.T) {
	g := dag.Parallel(64, nil)
	p, err := Schedule(g, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.NumSPartitions() != 1 {
		t.Fatalf("parallel loop scheduled into %d s-partitions", p.NumSPartitions())
	}
}

func TestSchedulePartsCapped(t *testing.T) {
	g := dag.Parallel(3, nil)
	p, err := Schedule(g, 16, Params{Parts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}
