// Benchmarks regenerating every table and figure of the paper's evaluation
// (section 4) under testing.B. One benchmark family per exhibit:
//
//	BenchmarkTable1  reuse-ratio inspector
//	BenchmarkFig1    wavefront analysis (unfused vs joint DAG)
//	BenchmarkFig5    executor time per combination x implementation
//	BenchmarkFig6    memory-latency proxy and potential gain
//	BenchmarkFig7    inspector cost per implementation (NER numerator)
//	BenchmarkFig8    DAG-partitioner time, one DAG vs joint DAG
//	BenchmarkFig9    Gauss-Seidel sweep chains per implementation
//	BenchmarkFig10   SpMV-SpMV fused vs unfused
//
// Run with: go test -bench=. -benchmem
// The matrix defaults to ~450K nonzeros; set SPFUSE_BENCH_MATRIX to any
// suite spec (e.g. lap3d:80) to scale up.
package sparsefusion

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"sparsefusion/internal/cachesim"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/dagp"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/figures"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
	"sparsefusion/internal/telemetry"
	"sparsefusion/internal/wavefront"
)

var (
	benchOnce sync.Once
	benchA    *sparse.CSR
)

func benchMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	benchOnce.Do(func() {
		spec := os.Getenv("SPFUSE_BENCH_MATRIX")
		if spec == "" {
			spec = "lap2d:300" // ~450K nnz in the lower triangle + full matrix
		}
		a, err := suite.Parse(spec, true)
		if err != nil {
			panic(err)
		}
		benchA = a
	})
	return benchA
}

func benchThreads() int { return runtime.GOMAXPROCS(0) }

// BenchmarkTable1 measures the reuse-ratio inspector component: kernel
// construction plus footprint analysis for all six combinations.
func BenchmarkTable1(b *testing.B) {
	a := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range combos.All {
			in, err := combos.Build(id, a)
			if err != nil {
				b.Fatal(err)
			}
			if in.Reuse <= 0 {
				b.Fatal("degenerate reuse ratio")
			}
		}
	}
}

// BenchmarkFig1 measures the wavefront analysis of figure 1: level sets of
// the separate kernel DAGs versus the joint DAG.
func BenchmarkFig1(b *testing.B) {
	a := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := figures.RunFig1(a)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Joint) >= len(f.Unfused) {
			b.Fatal("joint DAG did not reduce wavefronts")
		}
	}
}

// BenchmarkFig5 measures executor time for every (combination,
// implementation) pair of figure 5. Inspection happens once outside the
// timed region; the reported metric is the per-run GFLOP/s.
func BenchmarkFig5(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	for _, id := range combos.All {
		in, err := combos.Build(id, a)
		if err != nil {
			b.Fatal(err)
		}
		impls := []*combos.Impl{
			in.SparseFusion(th),
			in.UnfusedParSy(th, lbc.Params{}),
			in.UnfusedMKL(th),
			in.JointWavefront(th),
			in.JointLBC(th),
			in.JointDAGP(th),
		}
		for _, im := range impls {
			im := im
			b.Run(in.Name+"/"+im.Name, func(b *testing.B) {
				if err := im.Inspect(); err != nil {
					b.Skipf("inspection infeasible: %v", err)
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
				b.ReportMetric(telemetry.GFlops(in.FlopCount(), last.Elapsed), "GFLOP/s")
				b.ReportMetric(float64(last.Barriers), "barriers")
			})
		}
	}
}

// BenchmarkFig6 measures the figure 6 instrumentation itself: the cache
// simulation of the sparse-fusion implementation's steps and the
// potential-gain measurement of executing them, as RunFig6 does.
func BenchmarkFig6(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	in, err := combos.Build(combos.TrsvTrsv, a)
	if err != nil {
		b.Fatal(err)
	}
	im := in.SparseFusion(th)
	if err := im.Inspect(); err != nil {
		b.Fatal(err)
	}
	b.Run("memory-latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := cachesim.Simulate(im.Steps(), cachesim.Default())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.AvgLatency(), "cycles/access")
		}
	})
	b.Run("potential-gain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := im.Execute()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.PotentialGain.Nanoseconds()), "wait-ns")
		}
	})
}

// BenchmarkFig7 measures inspector cost per implementation - the numerator
// of figure 7's NER metric.
func BenchmarkFig7(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	for _, id := range []combos.ID{combos.TrsvMv, combos.Ilu0Trsv} {
		in, err := combos.Build(id, a)
		if err != nil {
			b.Fatal(err)
		}
		for _, mk := range []struct {
			name string
			mk   func() *combos.Impl
		}{
			{"sparse-fusion", func() *combos.Impl { return in.SparseFusion(th) }},
			{"unfused-parsy", func() *combos.Impl { return in.UnfusedParSy(th, lbc.Params{}) }},
			{"unfused-mkl", func() *combos.Impl { return in.UnfusedMKL(th) }},
			{"fused-wavefront", func() *combos.Impl { return in.JointWavefront(th) }},
			{"fused-lbc", func() *combos.Impl { return in.JointLBC(th) }},
			{"fused-dagp", func() *combos.Impl { return in.JointDAGP(th) }},
		} {
			mk := mk
			b.Run(in.Name+"/"+mk.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := mk.mk().Inspect(); err != nil {
						b.Skipf("infeasible: %v", err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8 measures the DAG partitioners on the single SpTRSV DAG and
// on the SpTRSV+SpMV joint DAG.
func BenchmarkFig8(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	in, err := combos.Build(combos.TrsvMv, a)
	if err != nil {
		b.Fatal(err)
	}
	one := in.Loops.G[0]
	joint, err := in.JointGraph()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lbc-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lbc.Schedule(one, th, lbc.Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lbc-joint-chordal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lbc.ScheduleChordal(joint, th, lbc.Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dagp-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dagp.Schedule(one, th, dagp.Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dagp-joint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dagp.Schedule(joint, th, dagp.Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wavefront-joint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wavefront.Schedule(joint, th); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9 measures one fused Gauss-Seidel sweep chain (3 sweeps, 6
// loops) per implementation.
func BenchmarkFig9(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	for _, cfg := range []struct {
		name   string
		sweeps int
		mk     func(in *combos.Instance) *combos.Impl
	}{
		{"fusion-2loops", 1, func(in *combos.Instance) *combos.Impl { return in.SparseFusion(th) }},
		{"fusion-6loops", 3, func(in *combos.Instance) *combos.Impl { return in.SparseFusion(th) }},
		{"parsy-6loops", 3, func(in *combos.Instance) *combos.Impl { return in.UnfusedParSy(th, lbc.Params{}) }},
		{"joint-wavefront-2loops", 1, func(in *combos.Instance) *combos.Impl { return in.JointWavefront(th) }},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			in, err := combos.BuildGS(a, cfg.sweeps)
			if err != nil {
				b.Fatal(err)
			}
			im := cfg.mk(in)
			if err := im.Inspect(); err != nil {
				b.Skipf("infeasible: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := im.Execute(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.sweeps), "sweeps/op")
		})
	}
}

// BenchmarkFig10 measures fused SpMV-SpMV against the unfused MKL-style
// implementation.
func BenchmarkFig10(b *testing.B) {
	a := benchMatrix(b)
	th := benchThreads()
	in, err := combos.Build(combos.MvMv, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		im   *combos.Impl
	}{
		{"fusion", in.SparseFusion(th)},
		{"unfused-mkl", in.UnfusedMKL(th)},
	} {
		mk := mk
		b.Run(mk.name, func(b *testing.B) {
			if err := mk.im.Inspect(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last exec.Stats
			for i := 0; i < b.N; i++ {
				st, err := mk.im.Execute()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(telemetry.GFlops(in.FlopCount(), last.Elapsed), "GFLOP/s")
		})
	}
}

// BenchmarkPublicAPI exercises the facade the way a downstream user would:
// inspect once, run many times.
func BenchmarkPublicAPI(b *testing.B) {
	m := newMatrix(benchMatrix(b))
	op, err := NewOperation(TrsvMv, m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := op.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Time <= 0 {
			b.Fatal("empty report")
		}
	}
}

// benchMatrixReorder parses the benchmark matrix spec with explicit control
// over the nested-dissection preprocessing (for the reordering ablation).
func benchMatrixReorder(reorder bool) (*sparse.CSR, error) {
	spec := os.Getenv("SPFUSE_BENCH_MATRIX")
	if spec == "" {
		spec = "lap2d:300"
	}
	return suite.Parse(spec, reorder)
}
