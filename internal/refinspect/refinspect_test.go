package refinspect

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// randomLoops mirrors core's fuzz generator (an import cycle keeps the two
// test packages from sharing it): 2-5 loops, parallel or triangular DAGs,
// coupled by random F matrices.
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
				case 0:
				case 1:
					ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
				default:
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

// TestReferenceMatchesOptimized is the central determinism guard: the
// optimized inspector — serial or fanned out over min(Threads, GOMAXPROCS)
// workers — must serialize to exactly the bytes the frozen reference
// produces, across a corpus of random fusion problems and parameter draws, at
// GOMAXPROCS 1, 2, 4 and 8 (restored after).
func TestReferenceMatchesOptimized(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(99))
	trials := 40
	if testing.Short() {
		trials = 10
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
		want, err := ICO(loops, p)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if err := loops.Validate(want); err != nil {
			t.Fatalf("trial %d: reference schedule invalid: %v", trial, err)
		}
		wantBytes := want.Bytes()
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("trial %d GOMAXPROCS=%d: %v", trial, procs, err)
			}
			if !bytes.Equal(got.Bytes(), wantBytes) {
				t.Fatalf("trial %d: optimized inspector (GOMAXPROCS=%d) diverged from the serial reference (n=%d, %d loops, r=%d, reuse=%.2f, merge=%v, slack=%v)",
					trial, procs, n, len(loops.G), p.Threads, p.ReuseRatio, !p.DisableMerge, !p.DisableSlack)
			}
		}
	}
}

// TestReferenceMatchesOptimizedReversedHead pins the 2-loop reversed-head
// path (G2 with edges), which the random corpus only sometimes draws, at
// GOMAXPROCS 1, 2, 4 and 8.
func TestReferenceMatchesOptimizedReversedHead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.Intn(100)
		a := sparse.Must(sparse.RandomSPD(n, 3, rng.Int63()))
		b := sparse.Must(sparse.RandomSPD(n, 4, rng.Int63()))
		g1 := dag.FromLowerCSR(a.Lower())
		g2 := dag.FromLowerCSR(b.Lower())
		var ts []sparse.Triplet
		for i := 0; i < n; i++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
			if i > 0 {
				ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: 1})
			}
		}
		f, err := sparse.FromTriplets(n, n, ts)
		if err != nil {
			t.Fatal(err)
		}
		loops := &Loops{G: []*dag.Graph{g1, g2}, F: []*sparse.CSR{f}}
		p := Params{Threads: 2 + rng.Intn(7), ReuseRatio: rng.Float64() * 2}
		want, err := ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := core.ICO(loops, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d GOMAXPROCS=%d: reversed-head schedules diverged", trial, procs)
			}
		}
	}
}
