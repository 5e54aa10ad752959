package partition

import (
	"testing"

	"sparsefusion/internal/dag"
)

func chain(t *testing.T, n int) *dag.Graph {
	t.Helper()
	edges := make([]dag.Edge, n-1)
	for i := range edges {
		edges[i] = dag.Edge{Src: i, Dst: i + 1}
	}
	g, err := dag.FromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateAcceptsSequentialChain(t *testing.T) {
	g := chain(t, 5)
	p := &Partitioning{S: [][][]int{{{0, 1, 2, 3, 4}}}}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsWrongOrderInW(t *testing.T) {
	g := chain(t, 3)
	p := &Partitioning{S: [][][]int{{{0, 2, 1}}}}
	if err := p.Validate(g); err == nil {
		t.Fatal("out-of-order w-partition accepted")
	}
}

func TestValidateRejectsCrossWDependence(t *testing.T) {
	g := chain(t, 2)
	p := &Partitioning{S: [][][]int{{{0}, {1}}}} // same s-partition, different w
	if err := p.Validate(g); err == nil {
		t.Fatal("cross-w dependence within s-partition accepted")
	}
}

func TestValidateAcceptsCrossSPartition(t *testing.T) {
	g := chain(t, 2)
	p := &Partitioning{S: [][][]int{{{0}}, {{1}}}}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMissingAndDuplicate(t *testing.T) {
	g := chain(t, 3)
	if err := (&Partitioning{S: [][][]int{{{0, 1}}}}).Validate(g); err == nil {
		t.Fatal("missing vertex accepted")
	}
	if err := (&Partitioning{S: [][][]int{{{0, 1, 2, 1}}}}).Validate(g); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if err := (&Partitioning{S: [][][]int{{{0, 1, 7}}}}).Validate(g); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestCompact(t *testing.T) {
	p := &Partitioning{S: [][][]int{{{}, {1}}, {}, {{}}}}
	p.Compact()
	if len(p.S) != 1 || len(p.S[0]) != 1 {
		t.Fatalf("compact left %v", p.S)
	}
}

func TestCostAndImbalance(t *testing.T) {
	g := dag.Parallel(4, []int{10, 10, 1, 1})
	if Cost(g, []int{0, 2}) != 11 {
		t.Fatal("cost wrong")
	}
	balanced := &Partitioning{S: [][][]int{{{0, 2}, {1, 3}}}}
	if imb := balanced.Imbalance(g, 2); imb != 0 {
		t.Fatalf("balanced imbalance = %v", imb)
	}
	skewed := &Partitioning{S: [][][]int{{{0, 1}, {2, 3}}}}
	if imb := skewed.Imbalance(g, 2); imb <= 0 {
		t.Fatalf("skewed imbalance = %v", imb)
	}
}

func TestWaitWork(t *testing.T) {
	g := dag.Parallel(2, []int{8, 2})
	p := &Partitioning{S: [][][]int{{{0}, {1}}}}
	// r=2: wait = 2*8 - 10 = 6, divided by 2 threads = 3.
	if w := p.WaitWork(g, 2); w != 3 {
		t.Fatalf("wait work = %v, want 3", w)
	}
}

func TestFlatOrderAndCounts(t *testing.T) {
	p := &Partitioning{S: [][][]int{{{3, 1}, {0}}, {{2}}}}
	var flat []int
	for _, s := range p.S {
		for _, w := range s {
			flat = append(flat, w...)
		}
	}
	want := []int{3, 1, 0, 2}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v", flat)
		}
	}
	if p.NumVertices() != 4 || p.NumSPartitions() != 2 || p.MaxWidth() != 2 {
		t.Fatal("counts wrong")
	}
}

func TestPositions(t *testing.T) {
	p := &Partitioning{S: [][][]int{{{1}, {0}}, {{2}}}}
	pos, err := p.Positions(3)
	if err != nil {
		t.Fatal(err)
	}
	if pos[2].S != 1 || pos[0].W != 1 || pos[1].K != 0 {
		t.Fatalf("positions = %v", pos)
	}
}
