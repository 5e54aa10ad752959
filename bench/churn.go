package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/sparse"
)

// inspect-churn: every unit meets a pattern it has never seen, so every unit
// pays reordering and the whole inspector and runs the executor once. It is
// also the only workload that runs the factorization kernels (the compiled
// rung, bodies that write matrix values) and the scatter SpMV-CSC.
const (
	churnPowN   = 8000 // PowerLawSPD(8000, 6, seed_i): a fresh pattern per unit
	churnPowDeg = 6
	churnLapMin = 17 // Laplacian3D(17..23)
	// churnCycle units cover both matrix kinds with all seven combinations
	// once. Set-up, and the timed window, run whole cycles only, so every run
	// times the same mix whatever the machine's speed.
	churnCycle = 14
)

var churnCombos = []sf.Combination{sf.TrsvTrsv, sf.DscalIlu0, sf.TrsvMv, sf.Ic0Trsv, sf.Ilu0Trsv, sf.DscalIc0, sf.MvMv}

// churnInput is unit i of the stream: its matrix, combination and input.
// RandomSPD is left out on purpose: Matrix.Reorder takes seconds on it (see
// README.md).
func churnInput(seed int64, i int) (pattern, sf.Combination, []float64) {
	var p pattern
	if i%2 == 0 {
		p = powerLaw(churnPowN, churnPowDeg, subSeed(seed, uint64(2*i)))
	} else {
		p = laplacian3D(churnLapMin + (i/2)%7)
	}
	return p, churnCombos[i%len(churnCombos)], rhsVector(p.csr.Rows, subSeed(seed, uint64(2*i+1)))
}

// takesInput is false for the two matrix-only combinations.
func takesInput(c sf.Combination) bool { return c != sf.DscalIlu0 && c != sf.DscalIc0 }

// comboMetric is the per-combination first-run metric name.
func comboMetric(c sf.Combination) string {
	return "kernels." + strings.ToLower(c.String()) + ".first_run_ms"
}

// churnDone is one executed unit: its output and what verification needs.
type churnDone struct {
	c        sf.Combination
	a        *sparse.CSR // the reordered matrix
	in, out  []float64
	validate func(*combos.Instance) error // Loops.Validate of the executed schedule
	total    time.Duration                // the unit
	run      time.Duration                // its first Run alone
	packed   bool
	op       *sf.Operation // kept by set-up for heap_mb; nil in the traced pass
}

// churnFacade runs one unit through the public facade.
func churnFacade(p pattern, c sf.Combination, in []float64, threads int) (*churnDone, error) {
	t0 := time.Now()
	mr, perm, err := p.m.Reorder()
	if err != nil {
		return nil, err
	}
	op, err := sf.NewOperation(c, mr, sf.Options{Threads: threads})
	if err != nil {
		return nil, err
	}
	if takesInput(c) {
		if err := op.SetInput(in); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	_, err = op.Run()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	a, err := sparse.PermuteSym(p.csr, perm)
	if err != nil {
		return nil, err
	}
	return &churnDone{
		c: c, a: a, in: in, out: op.Output(), op: op,
		total: end.Sub(t0), run: end.Sub(t1), packed: op.Mode() == sf.ModePacked,
		validate: func(inst *combos.Instance) error {
			s, err := opSchedule(op)
			if err != nil {
				return err
			}
			return inst.Loops.Validate(s)
		},
	}, nil
}

// churnLayers runs one unit layer by layer under spans.
func churnLayers(tr *tracer, req int, p pattern, c sf.Combination, in []float64, threads int) (*churnDone, *layers, error) {
	root := tr.begin("bench.unit", -1, 0, req)
	defer tr.end(root)
	t0 := time.Now()
	a, err := tracedReorder(tr, root, 0, req, p.csr)
	if err != nil {
		return nil, nil, err
	}
	inst, err := tracedBuild(tr, root, 0, req, combos.ID(c), a)
	if err != nil {
		return nil, nil, err
	}
	l, err := tracedInspect(tr, root, 0, req, inst, threads)
	if err != nil {
		return nil, nil, err
	}
	copy(inst.Input, in)
	t1 := time.Now()
	_, err = l.run(tr, root, 0, req, threads)
	end := time.Now()
	if err != nil {
		return nil, nil, err
	}
	return &churnDone{
		c: c, a: a, in: in, out: inst.Snapshot(),
		total: end.Sub(t0), run: end.Sub(t1), packed: l.lay != nil,
		validate: func(*combos.Instance) error { return nil }, // tracedInspect validated it
	}, l, nil
}

// verify checks a unit's output and schedule and measures the two bases on a
// fresh instance: the vector combinations against the plain-loop oracle, the
// factorization combinations bit for bit against the sequential run.
func (d *churnDone) verify(threads int) (unfMS, seqMS float64, err error) {
	base, err := newBases(d.c, d.a, threads)
	if err != nil {
		return 0, 0, err
	}
	if err := d.validate(base.inst); err != nil {
		return 0, 0, fmt.Errorf("%s: schedule invalid: %w", d.c, err)
	}
	base.setInput(d.in)
	if seqMS, err = base.seqMS(); err != nil {
		return 0, 0, err
	}
	switch want, ok := oracleExpected(d.c, d.a, d.in); {
	case ok:
		err = checkVector(d.c.String()+" output", d.out, want)
	case d.c == sf.Ic0Trsv:
		// Its output comes from the scatter SpTRSV-CSC, whose atomic updates
		// land in no fixed order: equal to rounding, not to the bit.
		err = checkVector(d.c.String()+" output", d.out, base.inst.Snapshot())
	case !bitEqual(d.out, base.inst.Snapshot()):
		err = fmt.Errorf("%s: output differs from the sequential run", d.c)
	}
	if err != nil {
		return 0, 0, err
	}
	unfMS, err = base.unfusedMS()
	return unfMS, seqMS, err
}

func runInspectChurn(e *env) error {
	if e.tr != nil {
		return traceInspectChurn(e)
	}
	// Set-up is one untimed cycle; its operations are kept so that heap_mb is
	// the footprint of churnCycle inspected operations.
	warm, setupS, err := timeSetups(setupReps, func() ([]*churnDone, error) {
		kept := make([]*churnDone, 0, churnCycle)
		for i := 0; i < churnCycle; i++ {
			p, c, in := churnInput(e.seed, i)
			d, err := churnFacade(p, c, in, e.threads)
			if err != nil {
				return nil, err
			}
			d.a, d.in, d.out = nil, nil, nil
			kept = append(kept, d)
		}
		return kept, nil
	}, func([]*churnDone) {})
	if err != nil {
		return err
	}
	e.res.set("setup_s", setupS)
	e.res.set("heap_mb", heapMB())
	runtime.KeepAlive(warm)

	var unitMS, vsUnf, vsSeq []float64
	var busy time.Duration
	for i := churnCycle; busy.Seconds() < e.seconds || i%churnCycle != 0; i++ {
		p, c, in := churnInput(e.seed, i)
		e.res.Attempted++
		d, err := churnFacade(p, c, in, e.threads)
		if err != nil {
			e.fail(err)
			continue
		}
		busy += d.total
		unf, seq, err := d.verify(e.threads)
		if err != nil {
			e.fail(err)
			continue
		}
		unitMS = append(unitMS, ms(d.total))
		vsUnf = append(vsUnf, unf/ms(d.run))
		vsSeq = append(vsSeq, seq/ms(d.run))
	}
	e.setUnitMetrics(unitMS, busy)
	e.res.set("fused_vs_unfused", geomean(vsUnf))
	e.res.set("fused_vs_seq", geomean(vsSeq))
	e.res.note("ratios are geometric means over %d units of base first run / fused first run (UnfusedParSy, RunSequential)", len(vsUnf))
	return nil
}

// traceInspectChurn is the traced pass: half of the window through the
// facade with tracing off, half layer by layer under spans.
func traceInspectChurn(e *env) error {
	tr, r := e.tr, e.res
	var plain []float64
	var busy time.Duration
	i := 0
	for ; busy.Seconds() < e.seconds/2 || i%churnCycle != 0; i++ {
		p, c, in := churnInput(e.seed, i)
		d, err := churnFacade(p, c, in, e.threads)
		if err != nil {
			return err
		}
		r.Attempted++
		busy += d.total
		plain = append(plain, ms(d.total))
	}
	e.setUnitMetrics(plain, busy)

	first := i // the traced units continue the stream
	var tracedMS, packedMS, compiledMS, unfMS, seqMS []float64
	perCombo := map[sf.Combination][]float64{}
	var sum exact
	busy = 0
	mem := markMem()
	for ; busy.Seconds() < e.seconds/2 || i%churnCycle != 0; i++ {
		p, c, in := churnInput(e.seed, i)
		r.Attempted++
		d, l, err := churnLayers(tr, i, p, c, in, e.threads)
		if err != nil {
			e.fail(err)
			continue
		}
		busy += d.total
		unf, seq, err := d.verify(e.threads)
		if err != nil {
			e.fail(err)
			continue
		}
		tracedMS = append(tracedMS, ms(d.total))
		unfMS, seqMS = append(unfMS, unf), append(seqMS, seq)
		perCombo[c] = append(perCombo[c], ms(d.run))
		if d.packed {
			packedMS = append(packedMS, ms(d.run))
		} else {
			compiledMS = append(compiledMS, ms(d.run))
		}
		if i < first+churnCycle { // exact counts: the first traced cycle only
			sum.add(l.exact())
		}
	}
	mem.report(r, len(tracedMS))
	setInspectorMetrics(tr, r)
	sum.ReuseRatio /= churnCycle
	sum.MeanWidth /= churnCycle
	sum.Flops /= churnCycle
	sum.report(r)
	r.note("exact counts are sums (reuse_ratio, mean_width, flops_per_unit: means) over the first traced cycle of %d units", churnCycle)
	r.set("exec.run_ms_packed", mean(packedMS))
	r.set("exec.run_ms_compiled", mean(compiledMS))
	r.set("exec.unfused_run_ms", mean(unfMS))
	r.set("exec.seq_run_ms", mean(seqMS))
	r.note("exec.run_ms_* are means of first runs: %d packed units, %d compiled (factorization) units", len(packedMS), len(compiledMS))
	for c, v := range perCombo {
		r.set(comboMetric(c), mean(v))
	}
	r.set("trace.overhead_pct", 100*(median(tracedMS)-median(plain))/median(plain))
	r.note("trace.overhead_pct compares the layer-by-layer unit (p50 %.4g ms, %d units) with the facade unit (p50 %.4g ms, %d units)",
		median(tracedMS), len(tracedMS), median(plain), len(plain))
	return nil
}
