package lbc

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/sparse"
)

func triangularDAG(seed int64, n, deg int) *dag.Graph {
	a := sparse.Must(sparse.RandomSPD(n, deg, seed))
	return dag.FromLowerCSR(a.Lower())
}

func TestScheduleValidOnRandomTriangularDAGs(t *testing.T) {
	f := func(seed int64) bool {
		g := triangularDAG(seed, 120, 5)
		p, err := Schedule(g, 4, Params{InitialCut: 2, Agg: 3})
		if err != nil {
			return false
		}
		return p.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleCoversAllVertices(t *testing.T) {
	g := triangularDAG(3, 200, 6)
	p, err := Schedule(g, 8, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != g.N {
		t.Fatalf("scheduled %d of %d vertices", p.NumVertices(), g.N)
	}
}

func TestScheduleWidthBound(t *testing.T) {
	g := triangularDAG(7, 300, 4)
	for _, r := range []int{1, 2, 4, 7} {
		p, err := Schedule(g, r, Params{InitialCut: 3, Agg: 5})
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxWidth() > r {
			t.Fatalf("r=%d: width %d exceeds thread count", r, p.MaxWidth())
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
	}
}

func TestScheduleFewerSyncsThanWavefront(t *testing.T) {
	// Aggregating wavefronts is LBC's whole point: on a long-critical-path
	// DAG it must produce far fewer s-partitions than there are wavefronts.
	g := triangularDAG(11, 400, 5)
	pg, _ := g.CriticalPath()
	p, err := Schedule(g, 4, Params{InitialCut: 4, Agg: 50})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSPartitions() >= pg+1 {
		t.Fatalf("LBC produced %d s-partitions vs %d wavefronts", p.NumSPartitions(), pg+1)
	}
}

func TestScheduleParallelLoop(t *testing.T) {
	g := dag.Parallel(100, nil)
	p, err := Schedule(g, 4, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSPartitions() != 1 {
		t.Fatalf("parallel loop needs 1 s-partition, got %d", p.NumSPartitions())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSingleVertex(t *testing.T) {
	g := dag.Parallel(1, nil)
	p, err := Schedule(g, 8, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != 1 {
		t.Fatal("single vertex lost")
	}
}

func TestWPartitionsIndependentWithinSPartition(t *testing.T) {
	// No edge may connect two different w-partitions of one s-partition;
	// that is the LBC independence guarantee that lets them run in parallel.
	g := triangularDAG(19, 250, 5)
	p, err := Schedule(g, 4, Params{InitialCut: 3, Agg: 10})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := p.Positions(g.N)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Succ(u) {
			if pos[u].S == pos[v].S && pos[u].W != pos[v].W {
				t.Fatalf("edge %d->%d spans w-partitions %d and %d of s-partition %d",
					u, v, pos[u].W, pos[v].W, pos[u].S)
			}
		}
	}
}

func TestLoadBalanceBeatsNaiveSplit(t *testing.T) {
	// LPT packing over many independent chains of varied length must stay
	// close to balanced (LBC's per-s-partition balance guarantee).
	rng := rand.New(rand.NewSource(23))
	var edges []dag.Edge
	n := 0
	for c := 0; c < 40; c++ {
		chainLen := 2 + rng.Intn(12)
		for i := 0; i < chainLen-1; i++ {
			edges = append(edges, dag.Edge{Src: n + i, Dst: n + i + 1})
		}
		n += chainLen
	}
	g, err := dag.FromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(g, 4, Params{InitialCut: 400, Agg: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := p.Imbalance(g, 4); imb > 0.25 {
		t.Fatalf("imbalance %.2f too high for independent chains", imb)
	}
}

func TestDefaultParams(t *testing.T) {
	d := DefaultParams()
	if d.InitialCut != 4 || d.Agg != 400 {
		t.Fatalf("defaults %+v do not match the paper", d)
	}
	var zero Params
	if w := zero.withDefaults(); w != d {
		t.Fatalf("zero params resolve to %+v", w)
	}
}

func TestChordalizeAddsFill(t *testing.T) {
	// A 4-cycle pattern (as DAG: 0->1, 0->2, 1->3, 2->3) is not chordal;
	// fill must connect 1 and 2.
	g, err := dag.FromEdges(4, []dag.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	filled, ok := Chordalize(g, 0)
	if !ok {
		t.Fatal("chordalize hit fill bound on tiny graph")
	}
	if filled.NumEdges() <= g.NumEdges() {
		t.Fatalf("no fill added: %d edges", filled.NumEdges())
	}
	if !filled.IsAcyclic() {
		t.Fatal("fill created a cycle")
	}
	// Original edges must be preserved.
	has := func(u, v int) bool {
		for _, s := range filled.Succ(u) {
			if s == v {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if !has(e[0], e[1]) {
			t.Fatalf("original edge %v lost", e)
		}
	}
}

func TestChordalizeFillBound(t *testing.T) {
	g := triangularDAG(31, 300, 6)
	_, ok := Chordalize(g, 1) // absurdly small bound must trip
	if ok {
		t.Fatal("fill bound not enforced")
	}
}

func TestScheduleChordalValid(t *testing.T) {
	g := triangularDAG(37, 150, 5)
	p, err := ScheduleChordal(g, 4, Params{InitialCut: 3, Agg: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleChordalOnJointDAG(t *testing.T) {
	// The fused-LBC baseline path: joint DAG of TRSV and a diagonal-F SpMV.
	a := sparse.Must(sparse.RandomSPD(100, 4, 41))
	g1 := dag.FromLowerCSR(a.Lower())
	g2 := dag.Parallel(100, nil)
	var ts []sparse.Triplet
	for i := 0; i < 100; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
	}
	f, _ := sparse.FromTriplets(100, 100, ts)
	joint, err := dag.JointChain([]*dag.Graph{g1, g2}, []*sparse.CSR{f})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ScheduleChordal(joint, 4, Params{InitialCut: 3, Agg: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(joint); err != nil {
		t.Fatal(err)
	}
}

func TestPackLPTOrdersByLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := triangularDAG(rng.Int63(), 80, 4)
	p, err := Schedule(g, 3, Params{InitialCut: 2, Agg: 4})
	if err != nil {
		t.Fatal(err)
	}
	lvl, _ := g.Levels()
	for _, s := range p.S {
		for _, w := range s {
			for i := 1; i < len(w); i++ {
				if lvl[w[i]] < lvl[w[i-1]] {
					t.Fatal("w-partition not ordered by level")
				}
			}
		}
	}
}

func TestScheduleStressMatrixShapes(t *testing.T) {
	for name, a := range map[string]*sparse.CSR{
		"laplacian2d": sparse.Must(sparse.Laplacian2D(15)),
		"banded":      sparse.Must(sparse.BandedSPD(200, 8, 0.6, 5)),
		"powerlaw":    sparse.Must(sparse.PowerLawSPD(200, 3, 6)),
	} {
		g := dag.FromLowerCSR(a.Lower())
		p, err := Schedule(g, 6, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var _ *partition.Partitioning = p
	}
}

// TestScheduleWorkersDeterministic asserts the parallel window finalization
// is invisible in the output: at r >= 2 it fans out over min(r, GOMAXPROCS)
// workers, and GOMAXPROCS 2, 4 and 8 (restored after) yield the exact
// partitioning of the GOMAXPROCS 1 run.
func TestScheduleWorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := triangularDAG(rng.Int63(), 150+rng.Intn(200), 3+rng.Intn(5))
		r := 2 + rng.Intn(7)
		prm := Params{InitialCut: 1 + rng.Intn(4), Agg: 1 + rng.Intn(12)}
		runtime.GOMAXPROCS(1)
		want, err := Schedule(g, r, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := Schedule(g, r, prm)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.S) != len(want.S) {
				t.Fatalf("trial %d GOMAXPROCS=%d: %d s-partitions, want %d", trial, procs, len(got.S), len(want.S))
			}
			for s := range want.S {
				if len(got.S[s]) != len(want.S[s]) {
					t.Fatalf("trial %d GOMAXPROCS=%d: s=%d width %d, want %d", trial, procs, s, len(got.S[s]), len(want.S[s]))
				}
				for w := range want.S[s] {
					if len(got.S[s][w]) != len(want.S[s][w]) {
						t.Fatalf("trial %d GOMAXPROCS=%d: s=%d w=%d len mismatch", trial, procs, s, w)
					}
					for k := range want.S[s][w] {
						if got.S[s][w][k] != want.S[s][w][k] {
							t.Fatalf("trial %d GOMAXPROCS=%d: s=%d w=%d k=%d vertex %d, want %d",
								trial, procs, s, w, k, got.S[s][w][k], want.S[s][w][k])
						}
					}
				}
			}
		}
	}
}
