// Command figures regenerates the paper's tables and figures as CSV files
// plus a console summary.
//
// Usage:
//
//	figures [-threads N] [-scale small|standard] [-reps R] [-out DIR] TARGET...
//
// TARGET is one of: table1 fig1 fig5 fig6 fig7 fig8 fig9 fig10 reusedist all.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/figures"
	"sparsefusion/internal/suite"
)

var (
	threads = flag.Int("threads", runtime.GOMAXPROCS(0), "schedule width r")
	scale   = flag.String("scale", "small", "matrix suite: small or standard")
	reps    = flag.Int("reps", 3, "executor repetitions (minimum is reported)")
	outDir  = flag.String("out", "results", "output directory for CSV files")
	limit   = flag.Int("limit", 0, "use only the first N suite matrices (0 = all)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	flag.Parse()
	targets := flag.Args()
	if len(targets) == 0 {
		log.Fatal("no target; choose from table1 fig1 fig5 fig6 fig7 fig8 fig9 fig10 reusedist all")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	entries := suite.Small()
	if *scale == "standard" {
		entries = suite.Standard()
	}
	if *limit > 0 && *limit < len(entries) {
		entries = entries[:*limit]
	}
	figures.Progress = func(line string) { log.Println(line) }
	run := map[string]func([]suite.Entry) error{
		"table1": table1, "fig1": fig1, "fig5": fig5, "fig6": fig6,
		"fig7": fig7, "fig8": fig8, "fig9": fig9, "fig10": fig10,
		"reusedist": reusedist,
	}
	order := []string{"table1", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "reusedist"}
	for _, t := range targets {
		if t == "all" {
			for _, name := range order {
				if err := run[name](entries); err != nil {
					log.Fatalf("%s: %v", name, err)
				}
			}
			continue
		}
		f, ok := run[t]
		if !ok {
			log.Fatalf("unknown target %q", t)
		}
		if err := f(entries); err != nil {
			log.Fatalf("%s: %v", t, err)
		}
	}
}

func writeCSV(name string, header []string, rows [][]string) error {
	path := filepath.Join(*outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
	return nil
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func table1(entries []suite.Entry) error {
	a := entries[len(entries)-1].Gen()
	rows, err := figures.RunTable1(a)
	if err != nil {
		return err
	}
	var out [][]string
	fmt.Println("Table 1: kernel combinations and computed reuse ratios")
	for _, r := range rows {
		fmt.Printf("  %d  %-10s  %-14s  reuse=%.3f  packing=%s\n",
			r.ID, r.Combo, r.DepClasses, r.Reuse, packing(r.Interleaved))
		out = append(out, []string{strconv.Itoa(r.ID), r.Combo, r.DepClasses, ff(r.Reuse), packing(r.Interleaved)})
	}
	return writeCSV("table1.csv", []string{"id", "combo", "deps", "reuse", "packing"}, out)
}

func packing(interleaved bool) string {
	if interleaved {
		return "interleaved"
	}
	return "separated"
}

func fig1(entries []suite.Entry) error {
	a := suite.Bone010Standin()
	if *scale == "small" {
		a = entries[0].Gen()
	}
	f, err := figures.RunFig1(a)
	if err != nil {
		return err
	}
	max := func(ws []int) int {
		m := 0
		for _, w := range ws {
			if w > m {
				m = w
			}
		}
		return m
	}
	fmt.Printf("Fig 1: unfused %d wavefronts (max width %d) vs joint %d wavefronts (max width %d)\n",
		len(f.Unfused), max(f.Unfused), len(f.Joint), max(f.Joint))
	var out [][]string
	for i := 0; i < len(f.Unfused) || i < len(f.Joint); i++ {
		u, j := "", ""
		if i < len(f.Unfused) {
			u = strconv.Itoa(f.Unfused[i])
		}
		if i < len(f.Joint) {
			j = strconv.Itoa(f.Joint[i])
		}
		out = append(out, []string{strconv.Itoa(i), u, j})
	}
	return writeCSV("fig1.csv", []string{"wavefront", "unfused_width", "joint_width"}, out)
}

func fig5(entries []suite.Entry) error {
	rows, err := figures.RunFig5(entries, combos.All, *threads, *reps)
	if err != nil {
		return err
	}
	fmt.Println("Fig 5: GFLOP/s (fusion | best unfused | best fused joint-DAG)")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-12s %-10s nnz=%-9d %7.3f | %7.3f | %7.3f\n",
			r.Matrix, r.Combo, r.NNZ, r.Fusion, r.BestUnfused, r.BestFused)
		out = append(out, []string{r.Matrix, strconv.Itoa(r.NNZ), r.Combo, ff(r.Fusion), ff(r.BestUnfused), ff(r.BestFused)})
	}
	return writeCSV("fig5.csv", []string{"matrix", "nnz", "combo", "fusion_gflops", "best_unfused_gflops", "best_fused_gflops"}, out)
}

func fig6(entries []suite.Entry) error {
	a := suite.Bone010Standin()
	if *scale == "small" {
		a = entries[0].Gen()
	}
	rows, err := figures.RunFig6(a, *threads)
	if err != nil {
		return err
	}
	fmt.Println("Fig 6: memory latency / potential gain, normalized to ParSy")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-10s latency: fusion %.2f lbc %.2f parsy 1.00 | gain: fusion %.2f lbc %.2f parsy 1.00\n",
			r.Combo, r.LatFusion, r.LatFusedLBC, r.GainFusion, r.GainFusedLBC)
		out = append(out, []string{r.Combo, ff(r.LatFusion), ff(r.LatFusedLBC), "1",
			ff(r.GainFusion), ff(r.GainFusedLBC), "1"})
	}
	return writeCSV("fig6.csv", []string{"combo", "lat_fusion", "lat_fusedlbc", "lat_parsy",
		"gain_fusion", "gain_fusedlbc", "gain_parsy"}, out)
}

func fig7(entries []suite.Entry) error {
	rows, err := figures.RunFig7(entries, *threads)
	if err != nil {
		return err
	}
	fmt.Println("Fig 7: executor runs to amortize inspection (clipped to [-10,30])")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-12s %-10s %-16s NER=%6.1f\n", r.Matrix, r.Combo, r.Impl, r.NER)
		out = append(out, []string{r.Matrix, r.Combo, r.Impl, ff(r.NER)})
	}
	return writeCSV("fig7.csv", []string{"matrix", "combo", "impl", "ner"}, out)
}

func fig8(entries []suite.Entry) error {
	rows, err := figures.RunFig8(entries, *threads)
	if err != nil {
		return err
	}
	fmt.Println("Fig 8: partitioner time in seconds (-1 = infeasible)")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-12s edges=%-9d lbc1=%.4f lbcJ=%.4f dagp1=%.4f dagpJ=%.4f\n",
			r.Matrix, r.Edges, r.LBCOne, r.LBCJoint, r.DAGPOne, r.DAGPJoint)
		out = append(out, []string{r.Matrix, strconv.Itoa(r.Edges),
			ff(r.LBCOne), ff(r.LBCJoint), ff(r.DAGPOne), ff(r.DAGPJoint)})
	}
	return writeCSV("fig8.csv", []string{"matrix", "edges", "lbc_one", "lbc_joint", "dagp_one", "dagp_joint"}, out)
}

func fig9(entries []suite.Entry) error {
	rows, err := figures.RunFig9(entries, *threads, 1e-6, 1000)
	if err != nil {
		return err
	}
	fmt.Println("Fig 9: Gauss-Seidel end-to-end seconds")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-12s nnz=%-9d parsy=%.4f fusion=%.4f joint=%.4f (won with %d fused loops, %d sweeps)\n",
			r.Matrix, r.NNZ, r.ParSy, r.Fusion, r.JointDAG, r.FusedLoops, r.Sweeps)
		out = append(out, []string{r.Matrix, strconv.Itoa(r.NNZ),
			ff(r.ParSy), ff(r.Fusion), ff(r.JointDAG), strconv.Itoa(r.FusedLoops), strconv.Itoa(r.Sweeps)})
	}
	return writeCSV("fig9.csv", []string{"matrix", "nnz", "parsy_s", "fusion_s", "joint_s", "fused_loops", "sweeps"}, out)
}

func reusedist(entries []suite.Entry) error {
	a := suite.Bone010Standin()
	if *scale == "small" {
		a = entries[0].Gen()
	}
	rows, err := figures.RunReuseDist(a, *threads)
	if err != nil {
		return err
	}
	fmt.Println("Reuse distance (extension): mean LRU stack distance in cache lines, L1 hit ratio")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-10s mean: fused %8.0f parsy %8.0f | L1 hits: fused %.3f parsy %.3f\n",
			r.Combo, r.MeanFused, r.MeanParSy, r.L1HitFused, r.L1HitParSy)
		out = append(out, []string{r.Combo, ff(r.MeanFused), ff(r.MeanParSy), ff(r.L1HitFused), ff(r.L1HitParSy)})
	}
	return writeCSV("reusedist.csv", []string{"combo", "mean_fused", "mean_parsy", "l1hit_fused", "l1hit_parsy"}, out)
}

func fig10(entries []suite.Entry) error {
	rows, err := figures.RunFig10(entries, *threads, *reps)
	if err != nil {
		return err
	}
	fmt.Println("Fig 10: SpMV-SpMV GFLOP/s (unfused MKL-style vs fusion)")
	var out [][]string
	for _, r := range rows {
		fmt.Printf("  %-12s nnz=%-9d mkl=%.3f fusion=%.3f\n", r.Matrix, r.NNZ, r.MKL, r.Fusion)
		out = append(out, []string{r.Matrix, strconv.Itoa(r.NNZ), ff(r.MKL), ff(r.Fusion)})
	}
	return writeCSV("fig10.csv", []string{"matrix", "nnz", "mkl_gflops", "fusion_gflops"}, out)
}
