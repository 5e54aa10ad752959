package combos

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

const threads = 4

func lp() lbc.Params { return lbc.Params{InitialCut: 3, Agg: 10} }

// allImpls returns every implementation of an instance (joint baselines only
// for two-kernel instances).
func allImpls(in *Instance) []*Impl {
	impls := []*Impl{
		in.SparseFusion(threads),
		in.UnfusedParSy(threads, lp()),
		in.UnfusedMKL(threads),
	}
	if len(in.Kernels) == 2 {
		impls = append(impls,
			in.JointWavefront(threads),
			in.JointLBC(threads),
			in.JointDAGP(threads),
		)
	}
	return impls
}

func TestAllCombosAllImplsAgree(t *testing.T) {
	for _, a := range []*sparse.CSR{
		sparse.Must(sparse.RandomSPD(250, 5, 1)),
		sparse.Must(sparse.Laplacian2D(16)),
	} {
		for _, id := range All {
			in, err := Build(id, a)
			if err != nil {
				t.Fatalf("%s: %v", Names[id], err)
			}
			in.RunSequential()
			want := in.Snapshot()
			for _, im := range allImpls(in) {
				if err := im.Inspect(); err != nil {
					t.Fatalf("%s/%s: inspect: %v", in.Name, im.Name, err)
				}
				for rep := 0; rep < 2; rep++ {
					if _, err := im.Execute(); err != nil {
						t.Fatalf("%s/%s: %v", in.Name, im.Name, err)
					}
					if got := in.Snapshot(); sparse.RelErr(got, want) > 1e-9 {
						t.Fatalf("%s/%s rep %d: diverges by %v", in.Name, im.Name, rep, sparse.RelErr(got, want))
					}
				}
			}
		}
	}
}

func TestMvMvImplsAgree(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(300, 5, 2))
	in, err := Build(MvMv, a)
	if err != nil {
		t.Fatal(err)
	}
	in.RunSequential()
	want := in.Snapshot()
	for _, im := range allImpls(in) {
		if _, err := im.Execute(); err != nil {
			t.Fatalf("%s: %v", im.Name, err)
		}
		if got := in.Snapshot(); sparse.RelErr(got, want) > 1e-9 {
			t.Fatalf("%s: diverges", im.Name)
		}
	}
}

func TestGSChainAgrees(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(200, 5, 3))
	for _, sweeps := range []int{1, 2, 3} {
		in, err := BuildGS(a, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Kernels) != 2*sweeps {
			t.Fatalf("GS %d sweeps built %d kernels", sweeps, len(in.Kernels))
		}
		in.RunSequential()
		want := in.Snapshot()
		for _, im := range []*Impl{
			in.SparseFusion(threads),
			in.UnfusedParSy(threads, lp()),
			in.UnfusedMKL(threads),
		} {
			if _, err := im.Execute(); err != nil {
				t.Fatalf("GS/%s: %v", im.Name, err)
			}
			if got := in.Snapshot(); sparse.RelErr(got, want) > 1e-9 {
				t.Fatalf("GS %d sweeps/%s: diverges by %v", sweeps, im.Name, sparse.RelErr(in.Snapshot(), want))
			}
		}
	}
}

func TestGSConverges(t *testing.T) {
	// Gauss-Seidel on a diagonally dominant SPD system must reduce the
	// residual monotonically; 8 fused sweeps should shrink it well below
	// the initial norm.
	a := sparse.Must(sparse.RandomSPD(150, 4, 4))
	in, err := BuildGS(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	im := in.SparseFusion(threads)
	if _, err := im.Execute(); err != nil {
		t.Fatal(err)
	}
	x := in.Snapshot()
	b := sparse.RandomVec(a.Rows, 3) // same seed BuildGS uses
	ax := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for p := a.P[i]; p < a.P[i+1]; p++ {
			ax[i] += a.X[p] * x[a.I[p]]
		}
	}
	res := sparse.Norm2(sparse.Sub(ax, b))
	if res > 0.2*sparse.Norm2(b) {
		t.Fatalf("GS residual %v vs ||b|| %v: not converging", res, sparse.Norm2(b))
	}
}

func TestReuseClassificationMatchesTable1(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(300, 5, 5))
	wantGE1 := map[ID]bool{TrsvTrsv: true, DscalIlu0: true, TrsvMv: false, Ic0Trsv: true, Ilu0Trsv: true, DscalIc0: true}
	for id, ge1 := range wantGE1 {
		in, err := Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		if ge1 && in.Reuse < 1 {
			t.Fatalf("%s: reuse %v, Table 1 says >= 1", in.Name, in.Reuse)
		}
		if !ge1 && in.Reuse >= 1 {
			t.Fatalf("%s: reuse %v, Table 1 says < 1", in.Name, in.Reuse)
		}
	}
}

func TestFlopCountsPositive(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(100, 4, 6))
	for _, id := range append(append([]ID{}, All...), MvMv) {
		in, err := Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		if in.FlopCount() <= 0 {
			t.Fatalf("%s: flops = %d", in.Name, in.FlopCount())
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	rect, _ := sparse.FromTriplets(3, 4, nil)
	if _, err := Build(TrsvTrsv, rect); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	if _, err := Build(ID(99), sparse.Must(sparse.Laplacian2D(3))); err == nil {
		t.Fatal("unknown combo accepted")
	}
	if _, err := BuildGS(sparse.Must(sparse.Laplacian2D(3)), 0); err == nil {
		t.Fatal("zero sweeps accepted")
	}
}

func TestInspectTimesRecorded(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(200, 5, 7))
	in, err := Build(TrsvMv, a)
	if err != nil {
		t.Fatal(err)
	}
	im := in.SparseFusion(threads)
	if err := im.Inspect(); err != nil {
		t.Fatal(err)
	}
	if im.InspectTime <= 0 {
		t.Fatal("inspect time not recorded")
	}
}

// TestInspectSurfacesCompileLimit: a hand-assembled instance one loop past
// what a compiled program can tag is an inspection error, not a run on some
// slower path. (BuildChain never produces one; it cuts groups at the limit.)
func TestInspectSurfacesCompileLimit(t *testing.T) {
	spec, _, _ := trsvChainSpec(t, 40, kernels.MaxLoops+1)
	in := &Instance{Name: "too-long", Loops: &core.Loops{}}
	for i, ln := range spec.Links {
		in.Kernels = append(in.Kernels, ln.K)
		in.Loops.G = append(in.Loops.G, ln.K.DAG())
		if i > 0 {
			in.Loops.F = append(in.Loops.F, ln.F)
		}
	}
	in.Reuse = core.ReuseRatioChain(in.Kernels)
	im := in.SparseFusion(threads)
	if err := im.Inspect(); err == nil || !strings.Contains(err.Error(), "cannot compile") {
		t.Fatalf("Inspect of %d loops returned %v, want the compile limit", len(in.Kernels), err)
	}
	if _, err := im.Execute(); err == nil {
		t.Fatal("Execute ran an implementation whose inspection failed")
	}
}

// TestSparseFusionOpensServedRung: the sparse-fusion Impl runs on the rung the
// facade serves — packed wherever relayout accepts the chain, compiled for
// the factorization combinations — and what it computes there is the
// sequential result: bit for bit on gather chains, to rounding where a CSC
// kernel scatters (its column order associates the sums differently).
func TestSparseFusionOpensServedRung(t *testing.T) {
	a := sparse.Must(sparse.Laplacian2D(20))
	check := func(in *Instance, wantPacked bool) {
		t.Helper()
		if _, err := in.RunSequential(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		want := in.Snapshot()
		im := in.SparseFusion(threads)
		if _, err := im.Execute(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if got := im.Steps()[0].Runner.Layout() != nil; got != wantPacked {
			t.Fatalf("%s: sparse-fusion runner packed = %v, want %v", in.Name, got, wantPacked)
		}
		scatters := false
		for _, k := range in.Kernels {
			if _, ok := k.(kernels.SpillScatterer); ok {
				scatters = true
			}
		}
		got := in.Snapshot()
		if scatters {
			if e := sparse.RelErr(got, want); e > 1e-9 {
				t.Fatalf("%s: diverges from the sequential run by %v", in.Name, e)
			}
			return
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %x, sequential run %x", in.Name, i, got[i], want[i])
			}
		}
	}
	packs := map[ID]bool{TrsvTrsv: true, TrsvMv: true, MvMv: true}
	for _, id := range append(append([]ID(nil), All...), MvMv) {
		in, err := Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		check(in, packs[id])
	}
	gs, err := BuildGS(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	check(gs, true)
}

// sPartitions is the s-partition count of an implementation's steps: the
// barriers one Execute pays.
func sPartitions(im *Impl) int {
	n := 0
	for _, s := range im.Steps() {
		if s.Runner != nil {
			n += s.Runner.Program().NumSPartitions()
		}
	}
	return n
}

// TestImplStepsExecute: for every Impl constructor, the inspected steps cover
// the instance's kernels once each, in program order; Execute pays one
// barrier per s-partition of those steps (none for a sequential step); and
// what it computes is the sequential result — bit for bit on gather chains,
// to 1e-9 where a kernel scatters.
func TestImplStepsExecute(t *testing.T) {
	check := func(name string, ks []kernels.Kernel, im *Impl, seq func() error, snap func() []float64) {
		t.Helper()
		if err := seq(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := snap()
		if err := im.Inspect(); err != nil {
			t.Fatalf("%s: inspect: %v", name, err)
		}
		var covered []kernels.Kernel
		for _, s := range im.Steps() {
			covered = append(covered, s.Kernels...)
		}
		if len(covered) != len(ks) {
			t.Fatalf("%s: steps cover %d kernels, the instance has %d", name, len(covered), len(ks))
		}
		scatters := false
		for i, k := range ks {
			if covered[i] != k {
				t.Fatalf("%s: step kernel %d is %s, program order has %s", name, i, covered[i].Name(), k.Name())
			}
			if _, ok := k.(kernels.SpillScatterer); ok {
				scatters = true
			}
		}
		st, err := im.Execute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Barriers != sPartitions(im) {
			t.Fatalf("%s: %d barriers, the steps have %d s-partitions", name, st.Barriers, sPartitions(im))
		}
		got := snap()
		if scatters {
			if e := sparse.RelErr(got, want); e > 1e-9 {
				t.Fatalf("%s: diverges from the sequential run by %v", name, e)
			}
			return
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %x, sequential run %x", name, i, got[i], want[i])
			}
		}
	}
	a := sparse.Must(sparse.Laplacian2D(20))
	for _, id := range append(append([]ID(nil), All...), MvMv) {
		in, err := Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		seq := func() error { _, err := in.RunSequential(); return err }
		for _, im := range allImpls(in) {
			check(in.Name+"/"+im.Name, in.Kernels, im, seq, in.Snapshot)
		}
	}
	for _, maxGroup := range []int{0, 2} {
		spec, snap, _ := trsvChainSpec(t, 200, 5)
		spec.MaxGroup = maxGroup
		c, err := BuildChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		var ks []kernels.Kernel
		for _, ln := range spec.Links {
			ks = append(ks, ln.K)
		}
		check(fmt.Sprintf("chain/MaxGroup=%d", maxGroup), ks, c.SparseFusion(threads), c.RunSequential, snap)
	}
}

// TestExecuteAllocatesOnlyInRunners: Execute's loop over the steps allocates
// nothing of its own — an unfused execution costs what its per-kernel runs
// cost.
func TestExecuteAllocatesOnlyInRunners(t *testing.T) {
	in, err := Build(TrsvMv, sparse.Must(sparse.Laplacian2D(20)))
	if err != nil {
		t.Fatal(err)
	}
	im := in.UnfusedParSy(threads, lp())
	if err := im.Inspect(); err != nil {
		t.Fatal(err)
	}
	var runs float64
	for _, s := range im.Steps() {
		runs += testing.AllocsPerRun(20, func() { s.Runner.Run(threads) })
	}
	if got := testing.AllocsPerRun(20, func() { im.Execute() }); got != runs {
		t.Fatalf("Execute allocates %v per call, its runners %v", got, runs)
	}
}

func TestJointRejectsMultiLoop(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(100, 4, 8))
	in, err := BuildGS(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.JointWavefront(threads).Inspect(); err == nil {
		t.Fatal("joint baseline accepted a 4-loop instance")
	}
}

// TestAssembleThenDerive: Assemble leaves the fusion input unbuilt, and every
// Fusion call on it builds a fresh input whose ICO schedule is Build's and
// keeps none of it; a session clone carries no input and no F builder; two
// instances over one Forms
// share the matrix forms for the pure combinations only — the factorization
// combinations write matrix values and keep private copies.
func TestAssembleThenDerive(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(300, 5, 19))
	src := sparse.NewForms(a)
	for _, id := range append(append([]ID(nil), All...), MvMv) {
		want, err := Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := core.ICO(want.Loops, core.Params{Threads: threads, ReuseRatio: want.Reuse})
		if err != nil {
			t.Fatal(err)
		}
		in, err := Assemble(id, src)
		if err != nil {
			t.Fatal(err)
		}
		if in.Loops != nil {
			t.Fatalf("%s: Assemble built the fusion input", in.Name)
		}
		clone, cerr := in.CloneForSession()
		if cerr == nil && (clone.Loops != nil || clone.buildF != nil) {
			t.Fatalf("%s: a session clone carries the fusion input or its F builder", in.Name)
		}
		var prev *core.Loops
		for _, d := range []*Instance{in, in} {
			loops, reuse, built := d.Fusion()
			if !built || loops == prev || d.Loops != nil {
				t.Fatalf("%s: Fusion must build a fresh input each call and keep none", in.Name)
			}
			prev = loops
			if reuse != want.Reuse {
				t.Fatalf("%s: reuse %v, Build's %v", in.Name, reuse, want.Reuse)
			}
			gs, err := core.ICO(loops, core.Params{Threads: threads, ReuseRatio: reuse})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
				t.Fatalf("%s: schedule from Assemble+Fusion differs from Build's", in.Name)
			}
		}

		// The memoized checksum is the one a layout of these kernels carries.
		sum, ok := in.SourceSum()
		wantSum, wantOK := relayout.SourceSum(in.Kernels, len(in.Kernels))
		if ok != wantOK || (ok && sum != wantSum) {
			t.Fatalf("%s: SourceSum %#x/%v, relayout's %#x/%v", in.Name, sum, ok, wantSum, wantOK)
		}

		other, err := Assemble(id, src)
		if err != nil {
			t.Fatal(err)
		}
		shared := true
		for l := range in.Kernels {
			p, isPacker := in.Kernels[l].(kernels.PackedKernel)
			q, _ := other.Kernels[l].(kernels.PackedKernel)
			if !isPacker || &p.PackedSource()[0] != &q.PackedSource()[0] {
				shared = false
			}
		}
		if pure := cerr == nil; shared != pure {
			t.Fatalf("%s: two instances share their matrix values = %v, want %v", in.Name, shared, pure)
		}
	}
}
