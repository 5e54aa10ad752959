package exec

import (
	"testing"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/core"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// packableCombos are the fused chains whose kernels all support the packed
// layout. ic0-trsv and dscal-ilu0 are excluded by design: the factor kernels
// mutate their matrices mid-run (no stable stream to pack), which
// CompileFused must leave unpacked (TestPackedFallbackForUnsupportedChains).
var packableCombos = []string{"trsv-mv", "trsv-trsv"}

// TestPackedMatchesSequentialWalkBitIdentical: on width-1 schedules the walk,
// the compiled-unpacked path and the packed path run the same iterations in
// the same order with the same arithmetic, so outputs must match bit for bit.
func TestPackedMatchesSequentialWalkBitIdentical(t *testing.T) {
	for _, name := range packableCombos {
		mk := combos[name]
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := core.Params{Threads: 1, ReuseRatio: reuse, LBC: icoParams().LBC}
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			walk(ks, sched)
			want := snap()
			r, lay, err := compilePacked(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile packed: %v", name, err)
			}
			if r.Layout() == nil {
				t.Fatalf("%s: runner did not take the packed path", name)
			}
			if lay.Words() == 0 {
				t.Fatalf("%s: empty layout", name)
			}
			stP := mustRun(r.Run(1))
			if !bitsSame(snap(), want) {
				t.Fatalf("%s reuse %v: packed output differs from the walk's", name, reuse)
			}
			if stP.Barriers != sched.NumSPartitions() {
				t.Fatalf("%s reuse %v: %d barriers, %d s-partitions", name, reuse, stP.Barriers, sched.NumSPartitions())
			}
			// Detaching returns the runner to the compiled-unpacked path,
			// still bit-identical.
			r.DetachLayout()
			if r.Layout() != nil {
				t.Fatalf("%s: detach did not clear the packed path", name)
			}
			r.Run(1)
			if !bitsSame(snap(), want) {
				t.Fatalf("%s reuse %v: detached output diverges", name, reuse)
			}
		}
	}
}

// TestPackedMatchesSequentialWalkParallel: on wide schedules the gather-only
// chain reproduces the walk's bits; the scatter chain sums its spill slots in
// a different association, so it agrees to 1e-9. Run under -race this also
// exercises the packed path for data races.
func TestPackedMatchesSequentialWalkParallel(t *testing.T) {
	for _, name := range packableCombos {
		mk := combos[name]
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := icoParams()
			p.ReuseRatio = reuse
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			walk(ks, sched)
			want := snap()
			r, _, err := compilePacked(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile packed: %v", name, err)
			}
			for rep := 0; rep < 3; rep++ {
				stP := mustRun(r.Run(threads))
				got := snap()
				if e := sparse.RelErr(got, want); e > 1e-9 || (!scatters(ks) && !bitsSame(got, want)) {
					t.Fatalf("%s reuse %v rep %d: packed diverges from the walk by %v", name, reuse, rep, e)
				}
				if stP.Barriers != sched.NumSPartitions() {
					t.Fatalf("%s reuse %v: %d barriers, %d s-partitions", name, reuse, stP.Barriers, sched.NumSPartitions())
				}
			}
		}
	}
}

// TestPackedFallbackForUnsupportedChains: chains containing factor kernels
// (which mutate their matrices mid-run) must be rejected by the relayout
// stage, and CompileFused then serves them on the compiled rung, the reason
// recorded.
func TestPackedFallbackForUnsupportedChains(t *testing.T) {
	for _, name := range []string{"ic0-trsv", "dscal-ilu0"} {
		loops, ks, _ := combos[name](200, 7)
		sched, err := core.ICO(loops, icoParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		art := cache.Artifacts{Schedule: sched}
		r, err := CompileFused(ks, &art, nil)
		if err != nil {
			t.Fatalf("%s: unpacked fallback failed too: %v", name, err)
		}
		if r.Layout() != nil || art.Layout != nil || art.LayoutErr == "" {
			t.Fatalf("%s: CompileFused packed a chain with a mid-run matrix writer (layout error %q)", name, art.LayoutErr)
		}
	}
}

// TestAttachLayoutRejectsForeignProgram: a layout is bound to the program it
// was built from; attaching it to a runner compiled from a different program
// must fail and leave the runner unpacked.
func TestAttachLayoutRejectsForeignProgram(t *testing.T) {
	loops, ks, _ := fusedTrsvMv(200, 7)
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := compileUnpacked(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := relayout.Build(r2.Program(), ks)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.AttachLayout(lay); err == nil {
		t.Fatal("AttachLayout accepted a layout built for a different program")
	}
	if r1.Layout() != nil {
		t.Fatal("failed attach left the runner packed")
	}
}

// BenchmarkPackedExecutor compares the packed executor against the
// compiled-unpacked one on the acceptance fixture (SpTRSV -> SpMV+b at 8
// w-partitions). Same pool, same program, same dispatch structure — the delta
// isolates the data layout: sequential int32/float64 streams vs matrix-order
// pointer-chasing.
func BenchmarkPackedExecutor(b *testing.B) {
	for _, tc := range []struct {
		name  string
		reuse float64
	}{
		{"separated", 0.5},
		{"interleaved", 1.5},
	} {
		ks, sched := benchFused(b, 40000, tc.reuse)
		r, err := compileUnpacked(ks, sched)
		if err != nil {
			b.Fatal(err)
		}
		lay, err := relayout.Build(r.Program(), ks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(8)
			}
		})
		b.Run(tc.name+"/packed", func(b *testing.B) {
			if err := r.AttachLayout(lay); err != nil {
				b.Fatal(err)
			}
			defer r.DetachLayout()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(8)
			}
		})
	}
}
