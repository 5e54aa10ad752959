// Command spfuse runs one kernel combination over one matrix with every
// implementation and prints a comparison table: inspection time, executor
// time, GFLOP/s and barrier count.
//
// Usage:
//
//	spfuse [-matrix SPEC] [-combo NAME] [-threads N] [-runs R] [-reorder]
//
// SPEC is a generator spec (lap2d:300, lap3d:40, rand:50000:8, band:N:W,
// pow:N:D) or a Matrix Market path. NAME is one of trsv-trsv, dad-ilu0,
// trsv-mv, ic0-trsv, ilu0-trsv, dad-ic0, mv-mv, or cg / pcg: one iteration
// of the fused CG or IC0-preconditioned CG solver (combos.CGChain, 6 or 8
// loops, blocks of combos.CGBlock elements), whose joint-DAG baselines are
// infeasible.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
	"sparsefusion/internal/telemetry"
)

var comboByFlag = map[string]combos.ID{
	"trsv-trsv": combos.TrsvTrsv,
	"dad-ilu0":  combos.DscalIlu0,
	"trsv-mv":   combos.TrsvMv,
	"ic0-trsv":  combos.Ic0Trsv,
	"ilu0-trsv": combos.Ilu0Trsv,
	"dad-ic0":   combos.DscalIc0,
	"mv-mv":     combos.MvMv,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spfuse: ")
	var (
		matrix  = flag.String("matrix", "lap2d:200", "matrix spec or .mtx path")
		combo   = flag.String("combo", "trsv-mv", "kernel combination")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "schedule width r")
		runs    = flag.Int("runs", 5, "executor repetitions (minimum reported)")
		reorder = flag.Bool("reorder", true, "apply nested-dissection reordering first (the paper's METIS step)")
		dump    = flag.Bool("dump", false, "print the fused schedule's per-s-partition shape, its w-partitions' iterations per loop, the dispatch units, each loop's packed stream words (or whose stream it reads) and the packed scatter loops' redirect counts")
		trace   = flag.String("trace", "", "write a Chrome trace of one fused execution to this path")
	)
	flag.Parse()

	a, err := suite.Parse(*matrix, *reorder)
	if err != nil {
		log.Fatal(err)
	}
	in, reset, err := build(strings.ToLower(*combo), a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s: n=%d nnz=%d reuse=%.3f threads=%d\n\n",
		in.Name, *matrix, a.Rows, a.NNZ(), in.Reuse, *threads)
	if *dump {
		sched, err := core.ICO(in.Loops, core.Params{Threads: *threads, ReuseRatio: in.Reuse})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("fused schedule shape (s-partition: width, iterations, w-partition costs, w-partition iterations per loop):")
		for si, st := range sched.Stats(in.Loops) {
			fmt.Printf("  s%-4d width=%-3d iters=%-8d costs=%v loops=%v\n", si, st.Widths, st.Iters, st.Costs, loopIters(sched.S[si], len(in.Kernels)))
		}
		fmt.Println()
		if err := dumpScatter(in, sched, *threads); err != nil {
			log.Fatal(err)
		}
	}
	if *trace != "" {
		if err := writeTrace(*trace, in, *threads); err != nil {
			log.Fatal(err)
		}
	}
	reset()
	seq, err := in.RunSequential()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %12s %12s %9s %9s\n", "implementation", "inspect", "execute", "gflops", "barriers")
	fmt.Printf("%-18s %12s %12v %9.3f %9s\n", "sequential", "-", seq,
		telemetry.GFlops(in.FlopCount(), seq), "-")

	impls := []*combos.Impl{
		in.SparseFusion(*threads),
		in.UnfusedParSy(*threads, lbc.Params{}),
		in.UnfusedMKL(*threads),
		in.JointWavefront(*threads),
		in.JointLBC(*threads),
		in.JointDAGP(*threads),
	}
	for _, im := range impls {
		if err := im.Inspect(); err != nil {
			fmt.Printf("%-18s %12s\n", im.Name, "infeasible")
			continue
		}
		best := time.Duration(0)
		barriers := 0
		for r := 0; r < *runs; r++ {
			reset()
			st, err := im.Execute()
			if err != nil {
				log.Fatalf("%s: %v", im.Name, err)
			}
			if best == 0 || st.Elapsed < best {
				best = st.Elapsed
			}
			barriers = st.Barriers
		}
		fmt.Printf("%-18s %12v %12v %9.3f %9d\n",
			im.Name, im.InspectTime.Round(time.Microsecond), best,
			telemetry.GFlops(in.FlopCount(), best), barriers)
	}
}

// build instantiates the named combination over a: a pairwise combination,
// or the CG/PCG solver chain as one fused group. reset restores the state a
// run starts from. A solver chain's pass feeds the next one's, and with the
// host's scalar update left out its vectors grow until the curvature check
// trips, so every timed run starts from the same random r and p with rz = 1.
func build(combo string, a *sparse.CSR) (in *combos.Instance, reset func(), err error) {
	if combo != "cg" && combo != "pcg" {
		id, ok := comboByFlag[combo]
		if !ok {
			return nil, nil, fmt.Errorf("unknown combo %q; choose from %v", combo, keys())
		}
		in, err := combos.Build(id, a)
		return in, func() {}, err
	}
	precond := combo == "pcg"
	n := a.Rows
	v := combos.NewCGVectors(n, combos.CGBlock, precond)
	spec, err := combos.CGChain(a, v, precond, combos.CGBlock)
	if err != nil {
		return nil, nil, err
	}
	chain, err := combos.BuildChain(spec)
	if err != nil {
		return nil, nil, err
	}
	r0, p0 := sparse.RandomVec(n, 1), sparse.RandomVec(n, 2)
	reset = func() {
		clear(v.X)
		copy(v.R, r0)
		copy(v.P, p0)
		v.RZ[0] = 1
	}
	reset()
	return chain.Groups[0], reset, nil
}

// writeTrace renders one fused solve as a Chrome trace: the inspector's stage
// spans (ICOTimed) and the executor's per-w-partition spans from the hot-path
// recorder (exec.Recorder on the served runner, run once with its layout
// detached and once — when the chain packs — attached) on one timeline, so
// both executor paths are comparable in one view. Open the file in
// chrome://tracing or https://ui.perfetto.dev.
func writeTrace(path string, in *combos.Instance, threads int) error {
	sched, tm, err := core.ICOTimed(in.Loops, core.Params{Threads: threads, ReuseRatio: in.Reuse})
	if err != nil {
		return err
	}

	tb := telemetry.NewTimeline()
	tb.Process(1, "inspector")
	tb.Thread(1, 1, "ico stages")
	var cursor time.Duration
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"setup", tm.Setup}, {"lbc", tm.Head}, {"pairing", tm.Pairing},
		{"merge", tm.Merge}, {"slack", tm.Slack}, {"pack", tm.Pack},
	} {
		tb.Span(1, 1, st.name, "inspect", cursor, st.d, nil)
		cursor += st.d
	}

	// addRun lays one recorded execution's spans after the current cursor and
	// advances it past the run.
	addRun := func(pid int, name string, spans []exec.Span, elapsed time.Duration) {
		tb.Process(pid, name)
		seen := map[int]bool{}
		for _, s := range spans {
			if !seen[s.WPartition] {
				seen[s.WPartition] = true
				tb.Thread(pid, s.WPartition+1, fmt.Sprintf("w%d", s.WPartition))
			}
			tb.Span(pid, s.WPartition+1, fmt.Sprintf("s%d (%d iters)", s.SPartition, s.Iters),
				"exec", cursor+s.Start, s.Duration,
				map[string]any{"s": s.SPartition, "iters": s.Iters})
		}
		cursor += elapsed
	}

	art := cache.Artifacts{Schedule: sched}
	runner, err := exec.CompileFused(in.Kernels, &art, nil)
	if err != nil {
		return err
	}
	rec := exec.NewRecorder(sched.NumSPartitions()*sched.MaxWidth()+1, sched.MaxWidth())
	runner.SetRecorder(rec)
	rec.Enable()
	runner.DetachLayout() // the compiled lane first
	stc, err := runner.Run(threads)
	if err != nil {
		return fmt.Errorf("compiled traced run: %w", err)
	}
	compiledSpans := rec.Spans()
	addRun(2, "executor (compiled)", compiledSpans, stc.Elapsed)

	if art.Layout != nil {
		if err := runner.AttachLayout(art.Layout); err != nil {
			return err
		}
		rec.Reset()
		stp, err := runner.Run(threads)
		if err != nil {
			return fmt.Errorf("packed traced run: %w", err)
		}
		addRun(3, "executor (packed)", rec.Spans(), stp.Elapsed)
	}
	runner.SetRecorder(nil)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote trace to %s (open in chrome://tracing; %d executor spans per run)\n\n",
		path, len(compiledSpans))
	return nil
}

// dumpScatter prints what the packed rung keeps and what its no-atomics
// scatter costs on this schedule: per loop the words of its packed stream, or
// the earlier loop whose stream it reads; per scatter loop, how many of its
// updates the re-layout redirected into private slots and how many adds fold
// them back, then the share of one warm packed run the calling goroutine spent
// folding.
func dumpScatter(in *combos.Instance, sched *core.Schedule, threads int) error {
	art := cache.Artifacts{Schedule: sched}
	runner, err := exec.CompileFused(in.Kernels, &art, nil)
	if err != nil {
		return err
	}
	pairs, singles := 0, 0
	runner.Units(func(_, _, _ int, pair bool) {
		if pair {
			pairs++
		} else {
			singles++
		}
	})
	fmt.Printf("dispatch units: %d fused pair spans, %d single-loop segments\n", pairs, singles)
	lay := art.Layout
	if lay == nil {
		fmt.Printf("packed scatter: chain does not pack (%s)\n\n", art.LayoutErr)
		return nil
	}
	fmt.Printf("packed streams (%d words in all):\n", lay.Words())
	for l, st := range lay.Streams {
		if own := lay.Owner(l); own != l {
			fmt.Printf("  loop %d %-12s reads loop %d's stream\n", l, in.Kernels[l].Name(), own)
			continue
		}
		fmt.Printf("  loop %d %-12s words=%d\n", l, in.Kernels[l].Name(), st.Words())
	}
	fmt.Println("packed scatter loops (updates per run, redirected to private slots, slots, fold adds per run):")
	for l, sc := range lay.Scatter {
		if sc == nil {
			continue
		}
		fmt.Printf("  loop %d %-12s entries=%-9d redirected=%-8d (%.1f%%) slots=%-7d fold=%d\n",
			l, in.Kernels[l].Name(), sc.Entries, sc.Redirected,
			100*float64(sc.Redirected)/float64(max(sc.Entries, 1)), sc.Slots, len(sc.FoldTarget))
	}
	var st exec.Stats
	for i := 0; i < 3; i++ { // the last of three: pool and caches warm
		if st, err = runner.Run(threads); err != nil {
			return fmt.Errorf("packed run: %w", err)
		}
	}
	fmt.Printf("  host-side fold %v of a %v packed run (%.2f%%)\n\n",
		st.Fold, st.Elapsed, 100*float64(st.Fold)/float64(max(st.Elapsed, 1)))
	return nil
}

// loopIters renders each w-partition of one s-partition as its iteration
// count per loop, "a+b+…" in loop order.
func loopIters(sp [][]core.Iter, loops int) []string {
	out := make([]string, len(sp))
	for w, wp := range sp {
		n := make([]string, loops)
		counts := make([]int, loops)
		for _, it := range wp {
			counts[it.Loop]++
		}
		for l, c := range counts {
			n[l] = fmt.Sprint(c)
		}
		out[w] = strings.Join(n, "+")
	}
	return out
}

func keys() []string {
	ks := []string{"cg", "pcg"}
	for k := range comboByFlag {
		ks = append(ks, k)
	}
	return ks
}
