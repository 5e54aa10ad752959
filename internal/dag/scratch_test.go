package dag

import (
	"math/rand"
	"testing"

	"sparsefusion/internal/sparse"
)

// randomFactorDAG builds a random lower-triangular-pattern DAG for property
// tests (randomDAG in dag_test.go builds edge-list DAGs instead).
func randomFactorDAG(rng *rand.Rand, n int) *Graph {
	a := sparse.Must(sparse.RandomSPD(n, 2+rng.Intn(6), rng.Int63()))
	return FromLowerCSR(a.Lower())
}

// TestScratchMatchesAllocatingForms checks that one Scratch reused across
// many graphs of varying size produces exactly the values of the allocating
// Graph methods (which construct a fresh Scratch per call).
func TestScratchMatchesAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := NewScratch()
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(200)
		g := randomFactorDAG(rng, n)

		wantOrder, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		gotOrder, err := sc.TopoOrder(g)
		if err != nil {
			t.Fatal(err)
		}
		eqInt32(t, "topo", gotOrder, wantOrder)

		wantLvl, _ := g.Levels()
		gotLvl, err := sc.Levels(g)
		if err != nil {
			t.Fatal(err)
		}
		eqInt32(t, "levels", gotLvl, wantLvl)

		wantH, _ := g.Heights()
		gotH, err := sc.Heights(g)
		if err != nil {
			t.Fatal(err)
		}
		eqInt32(t, "heights", gotH, wantH)

		wantSN, _ := g.SlackNumbers()
		gotSN, err := sc.SlackNumbers(g)
		if err != nil {
			t.Fatal(err)
		}
		eqInt32(t, "slack", gotSN, wantSN)

		// One Kahn pass gives the order and the levels; the transpose's
		// heights along its own order are the graph's levels.
		order, lvl, err := sc.TopoLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		eqInt32(t, "TopoLevels order", order, wantOrder)
		eqInt32(t, "TopoLevels levels", lvl, wantLvl)
		tg := g.Transpose()
		tOrder, err := sc.TopoOrder(tg)
		if err != nil {
			t.Fatal(err)
		}
		eqInt32(t, "transpose heights", sc.HeightsAlong(tg, tOrder), wantLvl)

		seeds := []int{rng.Intn(n), rng.Intn(n)}
		wantReach := reachRef(g, seeds)
		gotReach := sc.Reach(g, seeds, nil)
		eqInt32(t, "reach", gotReach, wantReach)
	}
}

// reachRef is the seed's map-based BFS, kept as the reference the flat-array
// search is checked against.
func reachRef(g *Graph, seeds []int) []int {
	visited := make(map[int]bool, len(seeds))
	queue := append([]int(nil), seeds...)
	for _, s := range seeds {
		visited[s] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, s := range g.Succ(v) {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, s)
			}
		}
	}
	out := make([]int, 0, len(visited))
	for v := 0; v < g.N; v++ {
		if visited[v] {
			out = append(out, v)
		}
	}
	return out
}

func eqInt32(t *testing.T, what string, got []int32, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// jointRef is the seed's edge-list Joint construction; the counting-based
// builder must match it exactly.
func jointRef(g1, g2 *Graph, f *sparse.CSR) (*Graph, error) {
	n := g1.N + g2.N
	edges := make([]Edge, 0, g1.NumEdges()+g2.NumEdges()+f.NNZ())
	for v := 0; v < g1.N; v++ {
		for _, s := range g1.Succ(v) {
			edges = append(edges, Edge{v, s})
		}
	}
	for v := 0; v < g2.N; v++ {
		for _, s := range g2.Succ(v) {
			edges = append(edges, Edge{g1.N + v, g1.N + s})
		}
	}
	for i := 0; i < f.Rows; i++ {
		for k := f.P[i]; k < f.P[i+1]; k++ {
			edges = append(edges, Edge{f.I[k], g1.N + i})
		}
	}
	w := make([]int, n)
	for v := 0; v < g1.N; v++ {
		w[v] = g1.Weight(v)
	}
	for v := 0; v < g2.N; v++ {
		w[g1.N+v] = g2.Weight(v)
	}
	return FromEdges(n, edges, w)
}

func TestJointMatchesEdgeListConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(120)
		g1, g2 := randomFactorDAG(rng, n), randomFactorDAG(rng, n)
		var ts []sparse.Triplet
		for i := 0; i < n; i++ {
			for d := 0; d < rng.Intn(3); d++ {
				ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(n), Val: 1})
			}
		}
		f, err := sparse.FromTriplets(n, n, ts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := jointRef(g1, g2, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := JointChain([]*Graph{g1, g2}, []*sparse.CSR{f})
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N {
			t.Fatalf("trial %d: N=%d want %d", trial, got.N, want.N)
		}
		for v := 0; v <= got.N; v++ {
			if got.P[v] != want.P[v] {
				t.Fatalf("trial %d: P[%d]=%d want %d", trial, v, got.P[v], want.P[v])
			}
		}
		for k := range want.I {
			if got.I[k] != want.I[k] {
				t.Fatalf("trial %d: I[%d]=%d want %d", trial, k, got.I[k], want.I[k])
			}
		}
		for v := 0; v < got.N; v++ {
			if got.Weight(v) != want.Weight(v) {
				t.Fatalf("trial %d: W[%d]=%d want %d", trial, v, got.Weight(v), want.Weight(v))
			}
		}
	}
}
