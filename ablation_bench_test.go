// Ablation benchmarks for ICO's design choices (DESIGN.md section 7): what
// each phase of the algorithm buys. Run with:
//
//	go test -bench Ablation -benchtime 10x
package sparsefusion

import (
	"testing"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
)

// BenchmarkAblationPacking compares the two packing variants on a reuse>=1
// combination (TRSV-TRSV): the paper reports 1-3.9x from choosing correctly.
func BenchmarkAblationPacking(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	in, err := combos.Build(combos.TrsvTrsv, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name  string
		reuse float64
	}{
		{"interleaved", 1.5}, // the reuse ratio's actual choice here
		{"separated", 0.5},   // forced wrong choice
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			sched, err := core.ICO(in.Loops, core.Params{Threads: th, ReuseRatio: cfg.reuse})
			if err != nil {
				b.Fatal(err)
			}
			r, err := exec.CompileFused(in.Kernels, &cache.Artifacts{Schedule: sched}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMerge measures the merging phase's barrier reduction.
func BenchmarkAblationMerge(b *testing.B) {
	benchPhases(b, combos.Ic0Trsv, func(p *core.Params, on bool) { p.DisableMerge = !on }, "merge")
}

// BenchmarkAblationSlack measures slack vertex assignment's load balancing.
func BenchmarkAblationSlack(b *testing.B) {
	benchPhases(b, combos.TrsvMv, func(p *core.Params, on bool) { p.DisableSlack = !on }, "slack")
}

func benchPhases(b *testing.B, id combos.ID, set func(*core.Params, bool), phase string) {
	a := benchMatrix(b)
	th := benchThreads()
	in, err := combos.Build(id, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{true, false} {
		name := phase + "-on"
		if !on {
			name = phase + "-off"
		}
		on := on
		b.Run(name, func(b *testing.B) {
			p := core.Params{Threads: th, ReuseRatio: in.Reuse}
			set(&p, on)
			sched, err := core.ICO(in.Loops, p)
			if err != nil {
				b.Fatal(err)
			}
			if err := in.Loops.Validate(sched); err != nil {
				b.Fatal(err)
			}
			r, err := exec.CompileFused(in.Kernels, &cache.Artifacts{Schedule: sched}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last exec.Stats
			for i := 0; i < b.N; i++ {
				if last, err = r.Run(th); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Barriers), "barriers")
			b.ReportMetric(float64(last.PotentialGain.Nanoseconds()), "wait-ns")
		})
	}
}

// BenchmarkAblationSticky isolates the contiguity granule: granule size is a
// compile-time constant, so this benchmark contrasts the fused MV-MV (whose
// tail placement exercises sticky filling) against its own unfused kernels —
// the gap closing is what sticky filling bought (see internal/core/ico.go).
func BenchmarkAblationReorder(b *testing.B) {
	// What the METIS-substitute preprocessing buys: the same combination on
	// the same matrix with and without nested-dissection reordering.
	th := benchThreads()
	for _, cfg := range []struct {
		name    string
		reorder bool
	}{{"nd-reordered", true}, {"natural", false}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			a, err := benchMatrixReorder(cfg.reorder)
			if err != nil {
				b.Fatal(err)
			}
			in, err := combos.Build(combos.TrsvTrsv, a)
			if err != nil {
				b.Fatal(err)
			}
			im := in.SparseFusion(th)
			if err := im.Inspect(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last exec.Stats
			for i := 0; i < b.N; i++ {
				st, err := im.Execute()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(float64(last.Barriers), "barriers")
		})
	}
}
