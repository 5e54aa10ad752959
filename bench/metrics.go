package main

import "fmt"

// metricDef names one metric. The tables below are the single definition of
// what the benchmark reports; BENCHMARK.json repeats them for the driver and
// a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before -compare calls it regressed; per-layer
	// metrics have none.
	Bound float64
	// Exact marks a count that must repeat exactly for the same seed.
	Exact bool
	// NoSpread exempts a metric from -compare's spread check, as the driver
	// exempts setup_s: three set-ups a run cannot pin its median any tighter.
	NoSpread bool
}

// endToEnd are the metrics a user of the library sees and later changes are
// gated on; every workload reports every one of them when tracing is off. A
// unit is defined per workload (see workloads). Three of the issue's eight are
// not here: the fail ratio is 0 on a good run (it is the "failed"/"attempted"
// pair of the result line), and the unit-time median and 90th percentile do
// not repeat within any allowed bound on the reference VM (README.md,
// "Steadiness"), so they are printed with every run but gated nowhere and
// live in the per-layer list as unit.ms_p50 and unit.ms_p90.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, NoSpread: true},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "fused_vs_unfused", Unit: "ratio", Better: "higher", Bound: 0.20},
	{Name: "fused_vs_seq", Unit: "ratio", Better: "higher", Bound: 0.20},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, reported by the traced pass. A
// metric whose layer a workload does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{Name: "unit.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "unit.ms_p90", Unit: "ms", Better: "lower"},
	{Name: "unit.samples", Unit: "count", Better: "higher"},

	{Name: "order.reorder_ms", Unit: "ms", Better: "lower"},

	{Name: "combos.build_ms", Unit: "ms", Better: "lower"},
	{Name: "combos.dag_edges", Unit: "count", Better: "lower", Exact: true},
	{Name: "combos.reuse_ratio", Unit: "ratio", Better: "higher", Exact: true},

	{Name: "core.ico_ms", Unit: "ms", Better: "lower"},
	{Name: "core.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "lbc.head_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pairing_ms", Unit: "ms", Better: "lower"},
	{Name: "core.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.slack_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.s_partitions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.mean_width", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.work", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.span", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.model_speedup", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.schedule_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "relayout.build_ms", Unit: "ms", Better: "lower"},
	{Name: "relayout.stream_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "relayout.break_even_runs", Unit: "count", Better: "lower"},

	{Name: "exec.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.run_ms_packed", Unit: "ms", Better: "lower"},
	{Name: "exec.run_ms_compiled", Unit: "ms", Better: "lower"},
	{Name: "exec.unfused_run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.seq_run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.ns_per_iter", Unit: "ns", Better: "lower"},
	{Name: "exec.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "exec.barrier_wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "exec.barriers_per_unit", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.steals_per_unit", Unit: "count", Better: "lower"},
	{Name: "exec.ns_per_barrier", Unit: "ns", Better: "lower"},
	{Name: "exec.model_run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.measured_over_model", Unit: "ratio", Better: "lower"},

	{Name: "kernels.flops_per_unit", Unit: "count", Better: "lower", Exact: true},
	{Name: "kernels.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "kernels.bytes_per_unit", Unit: "B", Better: "lower", Exact: true},
	{Name: "kernels.achieved_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "kernels.triad_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "kernels.bw_frac", Unit: "ratio", Better: "higher"},
	{Name: "kernels.trsv-trsv.first_run_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.dad-ilu0.first_run_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.trsv-mv.first_run_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.ic0-trsv.first_run_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.ilu0-trsv.first_run_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.dad-ic0.first_run_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.mv-mv.first_run_ms", Unit: "ms", Better: "lower"},

	{Name: "solver.iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.barriers_per_iter", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.exec_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "solver.host_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "solver.barrier_wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "solver.final_rel_residual", Unit: "ratio", Better: "lower"},

	{Name: "cache.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.lookup_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.waits", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "serve.open_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.resolve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.session_new_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.admitted", Unit: "count", Better: "higher"},
	{Name: "serve.queued", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},

	{Name: "runtime.alloc_kb_per_unit", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string        // printed under the row, e.g. ratio bases and sample counts
	unset map[string]bool // per-layer metrics the workload does not exercise
}

func newResult() *result { return &result{Metrics: map[string]metric{}, unset: map[string]bool{}} }

// set records a metric; its unit comes from the tables.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables")
}
