package dag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparsefusion/internal/sparse"
)

// paperGraph returns the SpTRSV DAG G1 from the paper's running example
// (Figure 2b): 11 vertices with the dependencies drawn there.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(11, []Edge{
		{0, 1}, {1, 2}, {2, 3}, // chain 1-2-3-4 (0-indexed 0-1-2-3)
		{4, 5},         // 5 -> 6
		{6, 7}, {7, 8}, // 7 -> 8 -> 9
		{5, 9}, {8, 9}, // 6 -> 10, 9 -> 10
		{9, 10}, {3, 10}, // 10 -> 11, 4 -> 11
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLevelsPaperExample(t *testing.T) {
	g := paperGraph(t)
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 4}
	for v := range want {
		if lvl[v] != want[v] {
			t.Fatalf("level(%d) = %d, want %d", v+1, lvl[v], want[v])
		}
	}
}

func TestLevelsRespectEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 60, 150)
		lvl, err := g.Levels()
		if err != nil {
			return false
		}
		for v := 0; v < g.N; v++ {
			for _, s := range g.Succ(v) {
				if lvl[s] <= lvl[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomDAG builds a random DAG by only allowing edges from lower to higher
// vertex ids, which guarantees acyclicity.
func randomDAG(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		edges = append(edges, Edge{a, b})
	}
	w := make([]int, n)
	for i := range w {
		w[i] = 1 + rng.Intn(9)
	}
	g, err := FromEdges(n, edges, w)
	if err != nil {
		panic(err)
	}
	return g
}

func TestFromEdgesDeduplicates(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
}

func TestFromEdgesRejectsBad(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}, nil); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if _, err := FromEdges(2, []Edge{{1, 1}}, nil); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestFromLowerCSR(t *testing.T) {
	// L = [[2,0,0],[1,3,0],[0,4,5]]: deps 0->1 (L10) and 1->2 (L21).
	l, _ := sparse.FromTriplets(3, 3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 3},
		{Row: 2, Col: 1, Val: 4}, {Row: 2, Col: 2, Val: 5},
	})
	g := FromLowerCSR(l)
	if g.N != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph %d vertices %d edges", g.N, g.NumEdges())
	}
	if len(g.Succ(0)) != 1 || g.Succ(0)[0] != 1 {
		t.Fatal("missing edge 0->1")
	}
	if len(g.Succ(1)) != 1 || g.Succ(1)[0] != 2 {
		t.Fatal("missing edge 1->2")
	}
	if g.Weight(1) != 2 || g.Weight(2) != 2 {
		t.Fatal("weights should be row nnz")
	}
}

func TestFromLowerCSRMatchesLevelsOfTriangularSolve(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(80, 5, 2))
	l := a.Lower()
	g := FromLowerCSR(l)
	if !g.IsAcyclic() {
		t.Fatal("triangular DAG must be acyclic")
	}
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// A row's level must exceed the level of every strictly-lower column.
	for r := 0; r < l.Rows; r++ {
		for k := l.P[r]; k < l.P[r+1]; k++ {
			if c := l.I[k]; c < r && lvl[c] >= lvl[r] {
				t.Fatalf("level(%d)=%d not after level(%d)=%d", r, lvl[r], c, lvl[c])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := randomDAG(5, 40, 120)
	tt := g.Transpose().Transpose()
	if tt.NumEdges() != g.NumEdges() {
		t.Fatal("transpose changed edge count")
	}
	for v := 0; v < g.N; v++ {
		s1, s2 := g.Succ(v), tt.Succ(v)
		if len(s1) != len(s2) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("vertex %d successor %d changed", v, i)
			}
		}
	}
}

func TestTopoOrderValid(t *testing.T) {
	g := randomDAG(8, 50, 200)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < g.N; v++ {
		for _, s := range g.Succ(v) {
			if pos[s] <= pos[v] {
				t.Fatalf("topo order violates edge %d->%d", v, s)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Manually wire a back edge 2->0 to bypass FromEdges ordering freedom.
	g.I = append(g.I, 0)
	g.P[3]++
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
	if _, err := g.Levels(); err == nil {
		t.Fatal("Levels should fail on cyclic graph")
	}
}

func TestHeightsAndCriticalPath(t *testing.T) {
	g := paperGraph(t)
	h, err := g.Heights()
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1 (0-indexed 0) heads the chain 1-2-3-4-11: height 4.
	if h[0] != 4 {
		t.Fatalf("height(1) = %d, want 4", h[0])
	}
	if h[10] != 0 {
		t.Fatalf("height(11) = %d, want 0 (sink)", h[10])
	}
	pg, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if pg != 4 {
		t.Fatalf("critical path = %d, want 4", pg)
	}
}

func TestSlackNumbers(t *testing.T) {
	g := paperGraph(t)
	sn, err := g.SlackNumbers()
	if err != nil {
		t.Fatal(err)
	}
	// Chain 1-2-3-4-11 is critical: zero slack.
	for _, v := range []int{0, 1, 2, 3, 10} {
		if sn[v] != 0 {
			t.Fatalf("SN(%d) = %d, want 0 (critical)", v+1, sn[v])
		}
	}
	// Vertices 5,6 (chain of 2 feeding 10->11) have slack 1:
	// l(5)=0, height(5)=2 (5->6->10... wait 6->10->11), PG=4 -> SN=4-0-2=2? Verify below.
	for v := range sn {
		if sn[v] < 0 {
			t.Fatalf("SN(%d) = %d, negative", v+1, sn[v])
		}
	}
}

func TestSlackNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 50, 120)
		sn, err := g.SlackNumbers()
		if err != nil {
			return false
		}
		for _, s := range sn {
			if s < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlackPostponementSafe(t *testing.T) {
	// Moving a vertex v to wavefront l(v)+SN(v) must keep it before all its
	// successors' latest start l(s)+SN(s).
	g := randomDAG(33, 60, 150)
	lvl, _ := g.Levels()
	sn, _ := g.SlackNumbers()
	for v := 0; v < g.N; v++ {
		for _, s := range g.Succ(v) {
			if lvl[v]+sn[v] >= lvl[s]+sn[s] {
				t.Fatalf("postponing %d to %d collides with successor %d at %d",
					v, lvl[v]+sn[v], s, lvl[s]+sn[s])
			}
		}
	}
}

func TestLevelSetsPartition(t *testing.T) {
	g := randomDAG(14, 70, 200)
	sets, err := g.LevelSets()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, g.N)
	for _, set := range sets {
		for _, v := range set {
			if seen[v] {
				t.Fatalf("vertex %d in two level sets", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d missing from level sets", v)
		}
	}
}

func TestJointDAG(t *testing.T) {
	g1 := paperGraph(t)
	g2 := Parallel(11, nil) // SpMV DAG: no edges
	// F: diagonal (iteration i of loop2 needs iteration i of loop1).
	var ts []sparse.Triplet
	for i := 0; i < 11; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
	}
	f, _ := sparse.FromTriplets(11, 11, ts)
	j, err := JointChain([]*Graph{g1, g2}, []*sparse.CSR{f})
	if err != nil {
		t.Fatal(err)
	}
	if j.N != 22 {
		t.Fatalf("joint N = %d", j.N)
	}
	if j.NumEdges() != g1.NumEdges()+11 {
		t.Fatalf("joint edges = %d, want %d", j.NumEdges(), g1.NumEdges()+11)
	}
	if !j.IsAcyclic() {
		t.Fatal("joint DAG must be acyclic")
	}
	// Loop-2 vertex i must be strictly after loop-1 vertex i.
	lvl, _ := j.Levels()
	for i := 0; i < 11; i++ {
		if lvl[11+i] <= lvl[i] {
			t.Fatalf("joint level of L2 iter %d not after L1 iter %d", i, i)
		}
	}
}

func TestJointDAGShapeMismatch(t *testing.T) {
	g1, g2 := Parallel(3, nil), Parallel(4, nil)
	f, _ := sparse.FromTriplets(3, 3, nil)
	if _, err := JointChain([]*Graph{g1, g2}, []*sparse.CSR{f}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestReach(t *testing.T) {
	g := paperGraph(t)
	r := g.Reach([]int{6}) // 7 -> 8 -> 9 -> 10 -> 11
	want := []int{6, 7, 8, 9, 10}
	if len(r) != len(want) {
		t.Fatalf("reach = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("reach = %v, want %v", r, want)
		}
	}
}

func TestParallelGraph(t *testing.T) {
	g := Parallel(5, []int{1, 2, 3, 4, 5})
	if g.NumEdges() != 0 || g.TotalWeight() != 15 {
		t.Fatal("parallel graph malformed")
	}
	lvl, _ := g.Levels()
	for _, l := range lvl {
		if l != 0 {
			t.Fatal("parallel loop must be a single wavefront")
		}
	}
}

func TestWeightDefaults(t *testing.T) {
	g := Parallel(3, nil)
	if g.Weight(0) != 1 || g.TotalWeight() != 3 {
		t.Fatal("unit weight default wrong")
	}
}
