package main

import (
	"fmt"
	"time"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/order"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// The traced pass walks the same pipeline the facade runs inside
// NewOperation, one public layer function at a time, with a span around
// every call (names are "layer.operation").

// reorderLeaf is the leaf size Matrix.Reorder passes to NestedDissection.
const reorderLeaf = 64

// layers holds what the inspector and the executor set-up produce for one
// kernel chain over one matrix.
type layers struct {
	inst   *combos.Instance
	sched  *core.Schedule
	prog   *core.Program
	lay    *relayout.Layout // nil when the chain cannot be packed
	runner *exec.Runner
	tm     core.InspectorTimings
	shape  shape
}

// tracedReorder is Matrix.Reorder done by hand: nested dissection, then the
// symmetric permutation.
func tracedReorder(tr *tracer, parent, lane, req int, a *sparse.CSR) (*sparse.CSR, error) {
	id := tr.begin("order.reorder", parent, lane, req)
	defer tr.end(id)
	perm, err := order.NestedDissection(a, reorderLeaf)
	if err != nil {
		return nil, err
	}
	return sparse.PermuteSym(a, perm)
}

// tracedBuild is combos.Build under a span.
func tracedBuild(tr *tracer, parent, lane, req int, c combos.ID, a *sparse.CSR) (*combos.Instance, error) {
	id := tr.begin("combos.build", parent, lane, req)
	defer tr.end(id)
	return combos.Build(c, a)
}

// tracedInspect runs ICO, validation, compilation, re-layout and runner
// construction over inst, the way the facade's NewOperation does.
func tracedInspect(tr *tracer, parent, lane, req int, inst *combos.Instance, threads int) (*layers, error) {
	l := &layers{inst: inst}
	var err error

	id := tr.begin("core.ico", parent, lane, req)
	l.sched, l.tm, err = core.ICOTimed(inst.Loops, core.Params{Threads: threads, ReuseRatio: inst.Reuse, LBC: lbc.Params{}})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: ICO: %w", inst.Name, err)
	}
	tr.phases(id,
		[]string{"core.setup", "lbc.head", "core.pairing", "core.merge", "core.slack", "core.pack"},
		[]time.Duration{l.tm.Setup, l.tm.Head, l.tm.Pairing, l.tm.Merge, l.tm.Slack, l.tm.Pack})

	id = tr.begin("core.validate", parent, lane, req)
	err = inst.Loops.Validate(l.sched)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: schedule invalid: %w", inst.Name, err)
	}
	l.shape = scheduleShape(l.sched.Stats(inst.Loops))

	id = tr.begin("core.compile", parent, lane, req)
	l.prog, err = core.CompileSchedule(l.sched, len(inst.Kernels))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", inst.Name, err)
	}

	id = tr.begin("relayout.build", parent, lane, req)
	lay, layErr := relayout.Build(l.prog, inst.Kernels)
	tr.end(id)
	if layErr == nil {
		l.lay = lay // otherwise a factorization chain: it runs on the compiled rung
	}

	id = tr.begin("exec.bind", parent, lane, req)
	l.runner = exec.NewRunner(inst.Kernels, l.prog)
	if l.lay != nil {
		err = l.runner.AttachLayout(l.lay)
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: attach layout: %w", inst.Name, err)
	}
	return l, nil
}

// streamBytes is the size of the packed operand streams.
func (l *layers) streamBytes() int64 {
	if l.lay == nil {
		return 0
	}
	return 4 * int64(l.lay.Words())
}

// dagEdges counts the intra-loop edges plus the inter-loop dependences.
func (l *layers) dagEdges() int64 {
	var e int64
	for _, g := range l.inst.Loops.G {
		e += int64(g.NumEdges())
	}
	for _, f := range l.inst.Loops.F {
		e += int64(f.NNZ())
	}
	return e
}

// run executes the fused schedule once under a span and returns the
// executor's statistics.
func (l *layers) run(tr *tracer, parent, lane, req, threads int) (exec.Stats, error) {
	id := tr.begin("exec.run", parent, lane, req)
	st, err := l.runner.Run(threads)
	tr.end(id)
	return st, err
}

// exact is the set of counts that must repeat exactly for one matrix, one
// chain and one thread count.
type exact struct {
	DagEdges      int64
	ReuseRatio    float64
	SPartitions   int
	MeanWidth     float64
	Work, Span    int64
	ScheduleBytes int
	StreamBytes   int64
	Flops         int64
}

func (l *layers) exact() exact {
	return exact{
		DagEdges: l.dagEdges(), ReuseRatio: l.inst.Reuse,
		SPartitions: l.shape.SPartitions, MeanWidth: l.shape.MeanWidth,
		Work: l.shape.Work, Span: l.shape.Span,
		ScheduleBytes: len(l.sched.Bytes()), StreamBytes: l.streamBytes(),
		Flops: l.inst.FlopCount(),
	}
}

// add accumulates another pipeline's counts (inspect-churn sums a cycle).
func (x *exact) add(y exact) {
	x.DagEdges += y.DagEdges
	x.ReuseRatio += y.ReuseRatio
	x.SPartitions += y.SPartitions
	x.MeanWidth += y.MeanWidth
	x.Work += y.Work
	x.Span += y.Span
	x.ScheduleBytes += y.ScheduleBytes
	x.StreamBytes += y.StreamBytes
	x.Flops += y.Flops
}

// report writes the shape and size metrics.
func (x exact) report(r *result) {
	r.set("combos.dag_edges", float64(x.DagEdges))
	r.set("combos.reuse_ratio", x.ReuseRatio)
	r.set("core.s_partitions", float64(x.SPartitions))
	r.set("core.mean_width", x.MeanWidth)
	r.set("core.work", float64(x.Work))
	r.set("core.span", float64(x.Span))
	r.set("core.model_speedup", shape{Work: x.Work, Span: x.Span}.ModelSpeedup())
	r.set("core.schedule_bytes", float64(x.ScheduleBytes))
	r.set("relayout.stream_bytes", float64(x.StreamBytes))
	r.set("kernels.flops_per_unit", float64(x.Flops))
}

// inspectTwice runs the traced pipeline over the natural-order matrix two
// times — reorder, build (the caller's, under a combos.build span), inspect —
// and rejects the run unless every exact count repeats. It returns the second
// pipeline and its reordered matrix, with the inspector and shape metrics set.
func inspectTwice(e *env, name string, nat *sparse.CSR, build func(a *sparse.CSR) (*combos.Instance, error)) (*layers, *sparse.CSR, error) {
	tr := e.tr
	var l *layers
	var csr *sparse.CSR
	for rep := 0; rep < 2; rep++ {
		root := tr.begin("bench.inspect", -1, 0, rep)
		a, err := tracedReorder(tr, root, 0, rep, nat)
		if err != nil {
			return nil, nil, err
		}
		id := tr.begin("combos.build", root, 0, rep)
		inst, err := build(a)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		next, err := tracedInspect(tr, root, 0, rep, inst, e.threads)
		tr.end(root)
		if err != nil {
			return nil, nil, err
		}
		if l != nil {
			if err := guard(l.exact() == next.exact(), "%s: exact counts differ between repetitions: %+v vs %+v", name, l.exact(), next.exact()); err != nil {
				return nil, nil, err
			}
		}
		l, csr = next, a
	}
	setInspectorMetrics(tr, e.res)
	l.exact().report(e.res)
	return l, csr, nil
}

// setExecMetrics reports one pass of the fused schedule on the bench-owned
// runner: its untraced median passMS, the recorder's breakdown of the traced
// passes, and the work/span model priced with the sequential pass seqMS.
func (l *layers) setExecMetrics(r *result, passMS, tracedMS, seqMS float64, bd exec.Breakdown, threads int) {
	runs := float64(max(bd.Runs, 1))
	r.set("trace.overhead_pct", 100*(tracedMS-passMS)/passMS)
	r.set("exec.ns_per_iter", passMS*1e6/float64(l.prog.NumIterations()))
	r.set("exec.busy_frac", 1-bd.Imbalance())
	r.set("exec.barrier_wait_frac", bd.Imbalance())
	r.set("exec.barriers_per_unit", float64(bd.Barriers)/runs)
	r.set("exec.steals_per_unit", float64(bd.Steals)/runs)
	nsBarrier := float64(exec.BenchBarrier(threads, 2000).Nanoseconds())
	model := modelRunMS(l.shape, seqMS, l.shape.SPartitions, nsBarrier)
	r.set("exec.seq_run_ms", seqMS)
	r.set("exec.ns_per_barrier", nsBarrier)
	r.set("exec.model_run_ms", model)
	r.set("exec.measured_over_model", passMS/model)
	r.set("kernels.gflops", float64(l.inst.FlopCount())/(passMS*1e6))
}

// inspectorSpans are the spans whose mean duration in ms is the per-layer
// metric of the same name with "_ms" appended.
var inspectorSpans = []string{
	"order.reorder", "combos.build", "core.ico", "core.setup", "lbc.head", "core.pairing", "core.merge",
	"core.slack", "core.pack", "core.validate", "core.compile", "relayout.build", "exec.bind",
}

// setInspectorMetrics reports the mean duration of every inspector span.
func setInspectorMetrics(tr *tracer, r *result) {
	by := tr.byName()
	for _, name := range inspectorSpans {
		if st := by[name]; st.Count > 0 {
			r.set(name+"_ms", ms(st.Total)/float64(st.Count))
		}
	}
}
