package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// randomLoops builds a random fusion problem: 2-5 loops, each either
// parallel or a random triangular DAG, coupled by random F matrices of
// varying density (including empty rows: iterations with no cross
// dependence).
func randomLoops(rng *rand.Rand, n int) *Loops {
	nLoops := 2 + rng.Intn(4)
	loops := &Loops{}
	for k := 0; k < nLoops; k++ {
		if rng.Intn(3) == 0 {
			w := make([]int, n)
			for i := range w {
				w[i] = 1 + rng.Intn(9)
			}
			loops.G = append(loops.G, dag.Parallel(n, w))
		} else {
			a := sparse.Must(sparse.RandomSPD(n, 2+rng.Intn(5), rng.Int63()))
			loops.G = append(loops.G, dag.FromLowerCSR(a.Lower()))
		}
		if k > 0 {
			var ts []sparse.Triplet
			for i := 0; i < n; i++ {
				switch rng.Intn(4) {
				case 0: // no dependence for this iteration
				case 1: // diagonal
					ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
				default: // a few random producers
					for d := 0; d < 1+rng.Intn(3); d++ {
						ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(n), Val: 1})
					}
				}
			}
			f, err := sparse.FromTriplets(n, n, ts)
			if err != nil {
				panic(err)
			}
			loops.F = append(loops.F, f)
		}
	}
	return loops
}

func TestICOFuzzRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(120)
		loops := randomLoops(rng, n)
		p := Params{
			Threads:      1 + rng.Intn(8),
			ReuseRatio:   rng.Float64() * 2,
			LBC:          lbc.Params{InitialCut: 1 + rng.Intn(5), Agg: 1 + rng.Intn(20)},
			DisableMerge: rng.Intn(4) == 0,
			DisableSlack: rng.Intn(4) == 0,
		}
		sched, err := ICO(loops, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := loops.Validate(sched); err != nil {
			t.Fatalf("trial %d (%d loops, r=%d, merge=%v, slack=%v): %v",
				trial, len(loops.G), p.Threads, !p.DisableMerge, !p.DisableSlack, err)
		}
		if sched.NumIterations() != loops.TotalIterations() {
			t.Fatalf("trial %d: lost iterations", trial)
		}
		if sched.MaxWidth() > p.Threads {
			t.Fatalf("trial %d: width %d > r=%d", trial, sched.MaxWidth(), p.Threads)
		}
	}
}

func TestICOAblationTogglesStillValid(t *testing.T) {
	loops := comboCDCD(3, 200)
	for _, dm := range []bool{false, true} {
		for _, ds := range []bool{false, true} {
			p := testParams(4)
			p.DisableMerge, p.DisableSlack = dm, ds
			sched, err := ICO(loops, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := loops.Validate(sched); err != nil {
				t.Fatalf("merge=%v slack=%v: %v", !dm, !ds, err)
			}
		}
	}
}

func TestICOSlackImprovesBalance(t *testing.T) {
	// With slack disabled, the fused partitioning of a CD+parallel pair
	// keeps all SpMV iterations glued to their producers; slack assignment
	// must not make the barrier-critical cost worse.
	loops := comboCDPar(7, 500)
	cost := func(disable bool) int {
		p := Params{Threads: 4, DisableSlack: disable}
		sched, err := ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, sp := range sched.S {
			maxC := 0
			for _, w := range sp {
				c := 0
				for _, it := range w {
					c += loops.G[it.Loop].Weight(it.Idx)
				}
				if c > maxC {
					maxC = c
				}
			}
			total += maxC
		}
		return total
	}
	withSlack, withoutSlack := cost(false), cost(true)
	if withSlack > withoutSlack*11/10 {
		t.Fatalf("slack assignment worsened critical cost: %d vs %d", withSlack, withoutSlack)
	}
}

func TestICODegenerateShapes(t *testing.T) {
	// Single-iteration loops, empty F, single loop.
	one := dag.Parallel(1, nil)
	emptyF, _ := sparse.FromTriplets(1, 1, nil)
	loops := &Loops{G: []*dag.Graph{one, one}, F: []*sparse.CSR{emptyF}}
	sched, err := ICO(loops, Params{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := loops.Validate(sched); err != nil {
		t.Fatal(err)
	}
	// Single loop (no fusion): still a valid schedule of that loop.
	solo := &Loops{G: []*dag.Graph{dag.FromLowerCSR(sparse.Must(sparse.RandomSPD(50, 4, 1)).Lower())}}
	sched, err = ICO(solo, Params{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Validate(sched); err != nil {
		t.Fatal(err)
	}
}

func TestICOWideThreadCounts(t *testing.T) {
	loops := comboCDCD(9, 150)
	for _, r := range []int{2, 3, 5, 16, 64} {
		p := testParams(r)
		sched, err := ICO(loops, p)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if err := loops.Validate(sched); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if sched.MaxWidth() > r {
			t.Fatalf("r=%d: width %d", r, sched.MaxWidth())
		}
	}
}

// TestICOWorkersDeterministic asserts the parallel inspector's core
// guarantee: it fans out over min(Threads, GOMAXPROCS) workers, and every
// fan-out serializes to byte-identical schedules. GOMAXPROCS is swept over 1,
// 2, 4 and 8 (and restored) at Threads >= 2, each run compared with the
// GOMAXPROCS 1 run. (The cross-check against the seed's serial inspector is
// TestICOMatchesSeedCorpus.)
func TestICOWorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(7))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 20 + rng.Intn(120)
		loops := randomLoops(rng, n)
		p := Params{
			Threads:      2 + rng.Intn(7),
			ReuseRatio:   rng.Float64() * 2,
			LBC:          lbc.Params{InitialCut: 1 + rng.Intn(5), Agg: 1 + rng.Intn(20)},
			DisableMerge: rng.Intn(4) == 0,
			DisableSlack: rng.Intn(4) == 0,
		}
		var want []byte
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			sched, err := ICO(loops, p)
			if err != nil {
				t.Fatalf("trial %d GOMAXPROCS=%d: %v", trial, procs, err)
			}
			got := sched.Bytes()
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d: GOMAXPROCS=%d (Threads %d) produced a different schedule than GOMAXPROCS=1", trial, procs, p.Threads)
			}
		}
	}
}
