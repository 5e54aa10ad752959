package figures

import (
	"math"
	"testing"
	"time"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
)

const threads = 4

// tiny is a fast suite for the figure harness tests.
func tiny() []suite.Entry {
	return []suite.Entry{
		{Name: "lap2d-24", Gen: func() *sparse.CSR { return sparse.Must(sparse.Laplacian2D(24)) }},
		{Name: "rand-800", Gen: func() *sparse.CSR { return sparse.Must(sparse.RandomSPD(800, 6, 9)) }},
	}
}

func TestFig1Shape(t *testing.T) {
	f, err := RunFig1(sparse.Must(sparse.Laplacian3D(10)))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's claim: the joint DAG has at most as many wavefronts as the
	// two kernels run back to back, with at least as much total work.
	if len(f.Joint) >= len(f.Unfused) {
		t.Fatalf("joint wavefronts %d not fewer than unfused %d", len(f.Joint), len(f.Unfused))
	}
	sum := func(ws []int) int {
		s := 0
		for _, w := range ws {
			s += w
		}
		return s
	}
	if sum(f.Joint) != sum(f.Unfused) {
		t.Fatalf("iteration counts differ: %d vs %d", sum(f.Joint), sum(f.Unfused))
	}
}

func TestFig5Complete(t *testing.T) {
	rows, err := RunFig5(tiny(), combos.All, threads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tiny())*len(combos.All) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Fusion <= 0 || r.BestUnfused <= 0 || r.BestFused <= 0 {
			t.Fatalf("non-positive GFLOPs in %+v", r)
		}
		if math.IsNaN(r.Fusion) || math.IsInf(r.Fusion, 0) {
			t.Fatalf("bad fusion value in %+v", r)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := RunFig6(sparse.Must(sparse.Laplacian2D(40)), threads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(combos.All) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LatParSy != 1 || r.GainParSy != 1 {
			t.Fatalf("normalization broken in %+v", r)
		}
		if r.LatFusion <= 0 || r.RawLatParSy <= 0 {
			t.Fatalf("bad latency in %+v", r)
		}
		// The headline locality claim: fusion never does meaningfully worse
		// than kernel-at-a-time ParSy on the latency proxy.
		if r.LatFusion > 1.3 {
			t.Fatalf("%s: fusion latency %.2fx ParSy", r.Combo, r.LatFusion)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := RunFig7(tiny()[:1], threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NER < -10 || r.NER > 30 {
			t.Fatalf("NER not clipped: %+v", r)
		}
	}
	if len(rows) != 2*6 {
		t.Fatalf("rows = %d, want 12 (2 combos x 6 implementations)", len(rows))
	}
}

func TestFig7InspectionOrdering(t *testing.T) {
	// The claim behind figure 7 that survives small scales: sparse fusion's
	// inspector (one DAG partitioned at a time) is cheaper than fused-LBC's
	// (joint DAG + chordalization). NER itself needs executor wins that only
	// appear at the paper's matrix sizes, so compare inspection directly.
	a := sparse.Must(sparse.RandomSPD(8000, 8, 17))
	in, err := combos.Build(combos.TrsvMv, a)
	if err != nil {
		t.Fatal(err)
	}
	// The two sides' repetitions alternate (sf, jl, sf, jl, ...) so that a
	// burst of load from elsewhere on the machine lands on both.
	inspect := func(im *combos.Impl, best *time.Duration) {
		if err := im.Inspect(); err != nil {
			t.Fatal(err)
		}
		if *best == 0 || im.InspectTime < *best {
			*best = im.InspectTime
		}
	}
	var sf, jl time.Duration
	for rep := 0; rep < 3; rep++ {
		inspect(in.SparseFusion(threads), &sf)
		inspect(in.JointLBC(threads), &jl)
	}
	if sf >= jl {
		t.Fatalf("sparse fusion inspection %v not below fused-LBC %v", sf, jl)
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := RunFig8(tiny(), threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.LBCOne <= 0 || r.LBCJoint <= 0 {
			t.Fatalf("LBC infeasible on %s", r.Matrix)
		}
		// Joint-DAG inspection must cost more than one-DAG inspection for
		// the same partitioner (three times the edges plus chordalization).
		// Wall-clock timing on a loaded 2-core box is noisy, so allow a wide
		// margin rather than strict ordering.
		if r.LBCJoint < 0.3*r.LBCOne {
			t.Fatalf("%s: LBC joint %.4fs far cheaper than one-DAG %.4fs", r.Matrix, r.LBCJoint, r.LBCOne)
		}
		if r.Edges <= 0 {
			t.Fatalf("%s: no edges recorded", r.Matrix)
		}
	}
}

func TestFig9SolvesAndShape(t *testing.T) {
	rows, err := RunFig9(tiny()[:1], threads, 1e-6, 2000)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Fusion <= 0 || r.ParSy <= 0 || r.JointDAG <= 0 {
		t.Fatalf("non-positive solve times: %+v", r)
	}
	if r.Sweeps == 0 || r.FusedLoops < 2 || r.FusedLoops > 6 {
		t.Fatalf("implausible GS stats: %+v", r)
	}
}

func TestFig10Shape(t *testing.T) {
	rows, err := RunFig10(tiny(), threads, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MKL <= 0 || r.Fusion <= 0 {
			t.Fatalf("non-positive GFLOPs: %+v", r)
		}
	}
}

func TestTable1Classification(t *testing.T) {
	rows, err := RunTable1(sparse.Must(sparse.RandomSPD(500, 6, 3)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"TRSV-TRSV": true, "DAD-ILU0": true, "TRSV-MV": false,
		"IC0-TRSV": true, "ILU0-TRSV": true, "DAD-IC0": true,
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Interleaved != want[r.Combo] {
			t.Fatalf("%s: interleaved=%v reuse=%.3f, Table 1 disagrees", r.Combo, r.Interleaved, r.Reuse)
		}
		if r.DepClasses == "" {
			t.Fatalf("%s: missing dependency classes", r.Combo)
		}
	}
}

func TestRunGSUnknownVariant(t *testing.T) {
	if _, _, err := runGS(sparse.Must(sparse.Laplacian2D(5)), 2, 1e-6, 10, 1, "bogus"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestNER(t *testing.T) {
	// Inspector 100ms, baseline 10ms, executor 5ms: 20 runs amortize.
	if n := ner(100*time.Millisecond, 10*time.Millisecond, 5*time.Millisecond); n != 20 {
		t.Fatalf("NER = %v", n)
	}
	// Executor slower than baseline: negative (never amortized).
	if n := ner(time.Millisecond, time.Millisecond, 2*time.Millisecond); n >= 0 {
		t.Fatalf("NER = %v, want negative", n)
	}
	// Equal baseline and executor: +Inf, not a crash.
	if n := ner(time.Millisecond, time.Millisecond, time.Millisecond); !math.IsInf(n, 1) {
		t.Fatalf("NER = %v, want +Inf", n)
	}
}

func TestClip(t *testing.T) {
	if clip(50, -10, 30) != 30 || clip(-20, -10, 30) != -10 || clip(5, -10, 30) != 5 {
		t.Fatal("clip wrong")
	}
}

func TestMinDuration(t *testing.T) {
	if m := minDuration(3*time.Second, 0, time.Second, 2*time.Second); m != time.Second {
		t.Fatalf("min = %v", m)
	}
	if minDuration(0, 0) != 0 {
		t.Fatal("all-zero min should be 0")
	}
}
