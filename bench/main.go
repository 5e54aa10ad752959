// Command bench is the end-to-end benchmark of the sparsefusion library: four
// workloads that stress different layers, five gated end-to-end metrics measured
// with tracing off through the public facade, and a traced pass that calls
// each layer itself and reports per-layer metrics with a work/span and a
// bandwidth model. README.md in this directory defines every metric.
//
//	bench -seed N [-workload W] [-seconds S] [-trace 0|1|FILE] [-out FILE]
//	bench -compare A B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	unit string // what one unit of work is
	why  string // why the workload exists: the layers it stresses and bypasses
	run  func(*env) error
}

var workloads = []workload{
	{"gs-wide", "one warm Operation.Run of TRSV-MV on ND-reordered Laplacian3D(64)",
		"packed executor and kernels on a wide, beyond-L2 schedule; the inspector shows only in setup_s", runGSWide},
	{"pcg-solve", "one FusedCG.Solve to 1e-8 on ND-reordered Laplacian2D(100), fresh right-hand side",
		"hundreds of short 8-loop chain passes: barrier latency and dispatch, not bandwidth", runPCGSolve},
	{"inspect-churn", "matrix in hand -> Reorder -> NewOperation -> first verified Run, all 7 combinations, no cache",
		"order, combos, lbc, core and relayout do most of each unit; the only place the factorization kernels run", runInspectChurn},
	{"serve-zipf", "one request (25% open a session through the cache, 75% re-solve) from nproc closed-loop clients",
		"cache, serve and the facade hit path under Zipf(1.1) over 16 patterns; the executor does little", runServeZipf},
}

// env is what a workload is run with and what it fills in.
type env struct {
	seed    int64
	seconds float64
	threads int
	tr      *tracer // nil: tracing off, report end-to-end metrics
	res     *result
}

// fail counts one unit that returned an error or failed verification.
func (e *env) fail(err error) {
	e.res.Failed++
	if e.res.Failed <= 5 {
		fmt.Fprintln(os.Stderr, "bench: unit failed:", err)
	}
}

// guard hard-fails the run: the fixture would measure the wrong thing.
func guard(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("fixture guard: "+format, args...)
}

// timeSetups runs the set-up reps times, discarding every state but the last,
// and returns that state with the median set-up time in seconds.
func timeSetups[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = st
	}
	return last, median(times), nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memMark is a snapshot of the allocator; report sets the runtime.* metrics
// from what happened since.
type memMark struct{ m runtime.MemStats }

func markMem() memMark {
	var k memMark
	runtime.ReadMemStats(&k.m)
	return k
}

func (k memMark) report(r *result, units int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.set("runtime.alloc_kb_per_unit", float64(now.TotalAlloc-k.m.TotalAlloc)/1024/float64(max(units, 1)))
	r.set("runtime.gc_cycles", float64(now.NumGC-k.m.NumGC))
	r.set("runtime.gc_pause_ms", float64(now.PauseTotalNs-k.m.PauseTotalNs)/1e6)
}

// setUnitMetrics reports the unit timing from per-unit wall times in ms and
// the wall time of the window they were taken in: throughput, the gated
// metric, when tracing is off, and the median and the 90th percentile (every
// workload times at least 100 units, so at least ten lie beyond it) as
// per-layer metrics in the traced pass. Both are printed either way.
func (e *env) setUnitMetrics(unitMS []float64, wall time.Duration) {
	p50, p90 := median(unitMS), percentile(unitMS, 0.90)
	if e.tr == nil {
		e.res.set("units_per_s", float64(len(unitMS))/wall.Seconds())
	} else {
		e.res.set("unit.ms_p50", p50)
		e.res.set("unit.ms_p90", p90)
		e.res.set("unit.samples", float64(len(unitMS)))
	}
	e.res.note("unit_ms_p50 %.5g ms, unit_ms_p90 %.5g ms over %d verified units (%d beyond p90) in a %.1f s window, tracing off",
		p50, p90, len(unitMS), len(unitMS)/10, wall.Seconds())
}

// ratioBlocks pairs base measurements with the fused units around them. The
// machine's speed drifts by 10-20% over seconds to minutes, far more than the
// ratios may move, so a base run is compared with the median of the block of
// fused units just before it, and the reported ratio is the median over
// blocks.
type ratioBlocks struct {
	block         []float64 // fused unit times of the open block, ms
	vsUnf, vsSeq  []float64 // per closed block: base / median fused
	unfMS, seqMS  []float64
	fusedBlockMed []float64
}

func (b *ratioBlocks) fused(unitMS float64) { b.block = append(b.block, unitMS) }

// close ends the open block with one unfused and one sequential measurement.
func (b *ratioBlocks) close(unfMS, seqMS float64) {
	f := median(b.block)
	b.block = b.block[:0]
	b.vsUnf, b.vsSeq = append(b.vsUnf, unfMS/f), append(b.vsSeq, seqMS/f)
	b.unfMS, b.seqMS, b.fusedBlockMed = append(b.unfMS, unfMS), append(b.seqMS, seqMS), append(b.fusedBlockMed, f)
}

// report sets the two ratio metrics with their bases.
func (b *ratioBlocks) report(e *env, how string) {
	e.res.set("fused_vs_unfused", median(b.vsUnf))
	e.res.set("fused_vs_seq", median(b.vsSeq))
	e.res.note("ratios are medians over %d blocks of base / median fused unit of the block; medians: unfused base %.4g ms, sequential base %.4g ms, fused %.4g ms (%s)",
		len(b.vsUnf), median(b.unfMS), median(b.seqMS), median(b.fusedBlockMed), how)
}

// meta is the stamp that says which commit and machine produced a row.
type meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	Seed       int64  `json:"seed"`
}

func runMeta(seed int64) meta {
	return meta{
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		L2Bytes: cacheBytes(2), L3Bytes: cacheBytes(3), Seed: seed,
	}
}

// commit is git's HEAD, else the revision the toolchain stamped into the
// binary, else "unknown".
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// record is one line of an -out file: one run of one workload.
type record struct {
	Meta     meta   `json:"meta"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	seed := flag.Int64("seed", 1, "seed of every generated input")
	only := flag.String("workload", "", "run one workload (default: all four)")
	seconds := flag.Float64("seconds", 10, "length of the timed window of each workload")
	trace := flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1 or a file name: traced pass, per-layer metrics, Chrome trace written there")
	out := flag.String("out", "", "append one JSON line per workload to this file (the input of -compare)")
	compare := flag.String("compare", "", "compare result file A (this flag) against B (the next argument) and exit")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: bench -compare A B"))
		}
		regressed, err := compareFiles(os.Stdout, *compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 {
		fatal(fmt.Errorf("unexpected arguments %v or non-positive -seconds", flag.Args()))
	}

	var todo []workload
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *only))
	}

	m := runMeta(*seed)
	fmt.Printf("# commit %s  %s  nproc %d  GOMAXPROCS %d  L2 %d KiB  L3 %d KiB  seed %d\n",
		m.Commit, m.GoVersion, m.NProc, m.GOMAXPROCS, m.L2Bytes>>10, m.L3Bytes>>10, m.Seed)

	traced := *trace != "0"
	ok := true
	for _, w := range todo {
		e := &env{seed: *seed, seconds: *seconds, threads: runtime.GOMAXPROCS(0), res: newResult()}
		defs := endToEnd
		if traced {
			e.tr, defs = newTracer(), perLayer
		}
		if err := w.run(e); err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if traced {
			path := *trace
			if path == "1" {
				path = ".bench_build/trace-" + w.name + ".json"
			} else if len(todo) > 1 {
				path += "." + w.name
			}
			if err := e.tr.writeChrome(path); err != nil {
				fatal(fmt.Errorf("%s: write trace: %w", w.name, err))
			}
			e.res.set("trace.spans", float64(e.tr.count()))
			e.res.note("Chrome trace: %s", path)
			printSelfTimes(e.tr)
		}
		if err := finish(e.res, defs, traced); err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printRow(w, e.res, defs)
		if *out != "" {
			if err := appendRecord(*out, record{Meta: m, Workload: w.name, Trace: traced, result: *e.res}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(e.res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && e.res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// finish checks that the run reported exactly the metrics of its mode. A
// per-layer metric the workload does not exercise is filled with 0; a missing
// or zero end-to-end metric is an error.
func finish(r *result, defs []metricDef, traced bool) error {
	if r.Attempted < 1 {
		return fmt.Errorf("no unit was attempted")
	}
	r.Correct = r.Failed == 0
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok && traced:
			r.set(d.Name, 0)
			r.unset[d.Name] = true
		case !ok:
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		case !traced && !(m.Value > 0):
			return fmt.Errorf("end-to-end metric %s = %v", d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d defined for this mode", len(r.Metrics), len(defs))
	}
	return nil
}

// printRow prints every metric of one workload by name with its unit.
func printRow(w workload, r *result, defs []metricDef) {
	fmt.Printf("\n== %s  (unit: %s)\n", w.name, w.unit)
	fmt.Printf("   why: %s\n", w.why)
	fmt.Printf("   attempted %d  failed %d  fail_ratio %.4g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		tail := ""
		if d.Bound > 0 {
			tail = fmt.Sprintf("  (%s is better, bound %.0f%%)", d.Better, 100*d.Bound)
		} else if d.Exact {
			tail = "  (=)"
		}
		if r.unset[d.Name] {
			fmt.Printf("   %-34s %14s %-8s  (layer not exercised by this workload)\n", d.Name, "-", m.Unit)
			continue
		}
		fmt.Printf("   %-34s %14.6g %-8s%s\n", d.Name, m.Value, m.Unit, tail)
	}
	for _, n := range r.notes {
		fmt.Println("   note:", n)
	}
}

// printSelfTimes prints where the traced time went, by span name.
func printSelfTimes(tr *tracer) {
	by := tr.byName()
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].Self > by[names[j]].Self })
	fmt.Printf("\n   %-22s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, n := range names {
		fmt.Printf("   %-22s %8d %12.3f %12.3f\n", n, by[n].Count, ms(by[n].Total), ms(by[n].Self))
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
