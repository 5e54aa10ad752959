package exec

import (
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/order"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// The no-atomics contract of the packed rung under test: for one layout the
// scatter chains return the same bits on every run, on every pool width — the
// updates two w-partitions of one s-partition would contend on go to private
// slots that the caller folds in a fixed order — and those bits agree with
// the sequential column-order sum to rounding.

// scatterChain3 is a three-loop chain with two scatter loops, one of them the
// triangular solve: y = L\b by rows, z = L\y by columns (SpTRSV-CSC scatters
// into z), out = A*z by columns (SpMV-CSC scatters into out).
func scatterChain3(a *sparse.CSR, seed int64) (*core.Loops, []kernels.Kernel, func() []float64) {
	n := a.Rows
	l := a.Lower()
	lc := l.ToCSC()
	ac := a.ToCSC()
	b := sparse.RandomVec(n, seed)
	y, z, out := make([]float64, n), make([]float64, n), make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, b, y)
	k2 := kernels.NewSpTRSVCSC(lc, y, z)
	k3 := kernels.NewSpMVCSC(ac, z, out)
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG(), k3.DAG()},
		F: []*sparse.CSR{core.FDiagonal(n), core.FTrsvToMVCSC(ac)},
	}
	return loops, []kernels.Kernel{k1, k2, k3}, func() []float64 {
		return append(append([]float64(nil), z...), out...)
	}
}

// scatterFixtures are the chains with scatter loops, on a random and a
// power-law pattern (hub rows: a large share of the updates is contended). The
// power-law matrix is nested-dissection reordered, as the facade's Reorder
// would: in its natural order the hubs serialize the schedule to width 1.
func scatterFixtures() map[string]func() (*core.Loops, []kernels.Kernel, func() []float64) {
	trsvMv := func(a *sparse.CSR) (*core.Loops, []kernels.Kernel, func() []float64) {
		l, ac := a.Lower(), a.ToCSC()
		n := a.Rows
		x, y, z := sparse.RandomVec(n, 3), make([]float64, n), make([]float64, n)
		k1, k2 := kernels.NewSpTRSVCSR(l, x, y), kernels.NewSpMVCSC(ac, y, z)
		loops := &core.Loops{G: []*dag.Graph{k1.DAG(), k2.DAG()}, F: []*sparse.CSR{core.FTrsvToMVCSC(ac)}}
		return loops, []kernels.Kernel{k1, k2}, func() []float64 { return append([]float64(nil), z...) }
	}
	random := func() *sparse.CSR { return sparse.Must(sparse.RandomSPD(700, 6, 41)) }
	power := func() *sparse.CSR {
		a := sparse.Must(sparse.PowerLawSPD(700, 3, 42))
		perm, err := order.NestedDissection(a, 0)
		if err != nil {
			panic(err)
		}
		return sparse.Must(sparse.PermuteSym(a, perm))
	}
	return map[string]func() (*core.Loops, []kernels.Kernel, func() []float64){
		"trsv-mv/random":   func() (*core.Loops, []kernels.Kernel, func() []float64) { return trsvMv(random()) },
		"trsv-mv/powerlaw": func() (*core.Loops, []kernels.Kernel, func() []float64) { return trsvMv(power()) },
		"chain3/random":    func() (*core.Loops, []kernels.Kernel, func() []float64) { return scatterChain3(random(), 5) },
		"chain3/powerlaw":  func() (*core.Loops, []kernels.Kernel, func() []float64) { return scatterChain3(power(), 5) },
	}
}

func redirected(lay *relayout.Layout) int {
	n := 0
	for _, sc := range lay.Scatter {
		if sc != nil {
			n += sc.Redirected
		}
	}
	return n
}

func TestPackedScatterReproducible(t *testing.T) {
	const runs = 20
	for name, mk := range scatterFixtures() {
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk()
			p := icoParams()
			p.ReuseRatio = reuse
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := seqResult(ks, snap)
			r, lay, err := compilePacked(ks, sched)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.Program().MaxWidth < 2 || redirected(lay) == 0 {
				t.Fatalf("%s reuse %v: width %d, %d redirected updates: fixture exercises nothing",
					name, reuse, r.Program().MaxWidth, redirected(lay))
			}
			if err := relayout.CheckExclusive(r.Program(), lay, ks); err != nil {
				t.Fatalf("%s reuse %v: %v", name, reuse, err)
			}
			var first []float64
			check := func(what string) {
				t.Helper()
				got := snap()
				if first == nil {
					first = got
					if e := sparse.RelErr(got, want); e > 1e-9 {
						t.Fatalf("%s reuse %v: packed diverges from sequential by %v", name, reuse, e)
					}
				}
				if !bitsSame(got, first) {
					t.Fatalf("%s reuse %v %s: bits differ from the first run", name, reuse, what)
				}
			}
			// A private pool is MaxWidth wide whatever threads says.
			for _, th := range []int{1, 2, 4} {
				for i := 0; i < runs; i++ {
					mustRun(r.Run(th))
					check("private pool")
				}
			}
			for _, width := range []int{1, 2, 4, 8} {
				if width < r.Program().MaxWidth {
					continue // a round needs a slot per w-partition
				}
				pl := NewPool(width, 0)
				for i := 0; i < runs; i++ {
					mustRun(r.RunOn(pl, threads))
					check("shared pool")
				}
				pl.Close()
			}
		}
	}
}

// TestPackedScatterSurvivesReattach: detaching returns the runner to the
// compiled rung (atomics), re-attaching allocates fresh slots; and a second
// runner over the same kernels with a different layout must not disturb the
// first (slots are bound per run, not per attach).
func TestPackedScatterSurvivesReattach(t *testing.T) {
	loops, ks, snap := scatterFixtures()["trsv-mv/powerlaw"]()
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	r, lay, err := compilePacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(r.Run(threads))
	want := snap()

	p2 := icoParams()
	p2.Threads = 2
	sched2, err := core.ICO(loops, p2)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := compilePacked(ks, sched2)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(other.Run(2))
	mustRun(r.Run(threads))
	if !bitsSame(snap(), want) {
		t.Fatal("another runner over the same kernels changed this runner's bits")
	}

	r.DetachLayout()
	mustRun(r.Run(threads))
	if e := sparse.RelErr(snap(), want); e > 1e-9 {
		t.Fatalf("compiled rung diverges from packed by %v", e)
	}
	if err := r.AttachLayout(lay); err != nil {
		t.Fatal(err)
	}
	mustRun(r.Run(threads))
	if !bitsSame(snap(), want) {
		t.Fatal("re-attached layout changed the bits")
	}
}

// TestScatterArmedFromPoolWidth is the regression test for a data race: the
// compiled executor armed atomic scatter from the caller's threads argument,
// but runs a width-4 schedule on a width-4 pool whatever that argument says,
// so threads=1 scattered through plain += from four goroutines. Meaningful
// under -race; without it the run is merely checked.
func TestScatterArmedFromPoolWidth(t *testing.T) {
	loops, ks, snap := scatterFixtures()["trsv-mv/powerlaw"]()
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	if sched.MaxWidth() < 2 {
		t.Fatalf("schedule width %d: nothing runs concurrently", sched.MaxWidth())
	}
	want := seqResult(ks, snap)
	r, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustRun(r.Run(1))
		if e := sparse.RelErr(snap(), want); e > 1e-9 {
			t.Fatalf("compiled at threads=1: diverges from sequential by %v", e)
		}
	}
}
