// Command spverify checks, on any matrix, that every implementation of every
// kernel combination computes the same result as the sequential reference —
// the release-gate sanity check a downstream user can run on their own
// Matrix Market inputs before trusting the fused schedules.
//
// Usage:
//
//	spverify [-matrix SPEC] [-threads N] [-tol 1e-9]
//
// Exit status 0 means every implementation of every combination (including
// the multi-loop Gauss-Seidel chains) agreed within the tolerance.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spverify: ")
	var (
		matrix  = flag.String("matrix", "lap2d:100", "matrix spec or .mtx path")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "schedule width r")
		tol     = flag.Float64("tol", 1e-9, "relative error tolerance")
	)
	flag.Parse()
	a, err := suite.Parse(*matrix, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verifying on %s (n=%d, nnz=%d, r=%d, tol=%g)\n", *matrix, a.Rows, a.NNZ(), *threads, *tol)

	failures := 0
	check := func(in *combos.Instance, impls []*combos.Impl) {
		if _, err := in.RunSequential(); err != nil {
			log.Fatalf("sequential reference failed on %s: %v", in.Name, err)
		}
		want := in.Snapshot()
		for _, im := range impls {
			if err := im.Inspect(); err != nil {
				fmt.Printf("  %-12s %-16s SKIP (%v)\n", in.Name, im.Name, err)
				continue
			}
			status := "ok"
			for rep := 0; rep < 2; rep++ {
				if _, err := im.Execute(); err != nil {
					status = fmt.Sprintf("EXEC ERROR: %v", err)
					failures++
					break
				}
				if e := sparse.RelErr(in.Snapshot(), want); e > *tol {
					status = fmt.Sprintf("FAIL relerr=%.2e", e)
					failures++
					break
				}
			}
			fmt.Printf("  %-12s %-16s %s\n", in.Name, im.Name, status)
		}
	}

	for _, id := range append(append([]combos.ID{}, combos.All...), combos.MvMv) {
		in, err := combos.Build(id, a)
		if err != nil {
			log.Fatal(err)
		}
		check(in, []*combos.Impl{
			in.SparseFusion(*threads),
			in.UnfusedParSy(*threads, lbc.Params{}),
			in.UnfusedMKL(*threads),
			in.JointWavefront(*threads),
			in.JointLBC(*threads),
			in.JointDAGP(*threads),
		})
	}
	for _, sweeps := range []int{1, 3} {
		in, err := combos.BuildGS(a, sweeps)
		if err != nil {
			log.Fatal(err)
		}
		check(in, []*combos.Impl{
			in.SparseFusion(*threads),
			in.UnfusedParSy(*threads, lbc.Params{}),
			in.UnfusedMKL(*threads),
		})
	}

	if failures > 0 {
		fmt.Printf("\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall implementations verified")
}
