package main

import (
	"fmt"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// gs-wide: the Gauss-Seidel/PCG kernel pair on a schedule with real width
// and a footprint beyond L2. The executor, the packed kernel bodies and the
// quality of the re-layout do the timed work; the inspector is in setup_s.
const (
	gsGrid    = 64 // Laplacian3D(64): n = 262 144, nnz = 1.81 M
	gsWarmup  = 50 // runs discarded in set-up: a fresh worker pool is slower
	gsRHSPool = 4
	// gsRatioBlock fused units are followed by one unfused and one sequential run
	// (see ratioBlocks).
	gsRatioBlock = 16
	// gsMinStreamBytes is four times the 8 MiB of L2 the reference box has in
	// use; a fixture whose packed streams are smaller measures cache, not
	// memory.
	gsMinStreamBytes = 32 << 20
	// gsWidthShare: with two workers the mean width must reach 1.5, the
	// issue's 0.75 x min(2, threads).
	gsWidthShare = 0.5
)

type gsState struct {
	perm []int
	op   *sf.Operation
}

func runGSWide(e *env) error {
	nat := laplacian3D(gsGrid)
	rhs := make([][]float64, gsRHSPool)
	for i := range rhs {
		rhs[i] = rhsVector(nat.csr.Rows, subSeed(e.seed, uint64(i)))
	}
	if e.tr != nil {
		return traceGSWide(e, nat, rhs)
	}

	st, setupS, err := timeSetups(setupReps, func() (*gsState, error) {
		mr, perm, err := nat.m.Reorder()
		if err != nil {
			return nil, err
		}
		op, err := sf.NewOperation(sf.TrsvMv, mr, sf.Options{Threads: e.threads})
		if err != nil {
			return nil, err
		}
		if err := op.SetInput(rhs[0]); err != nil {
			return nil, err
		}
		for i := 0; i < gsWarmup; i++ {
			if _, err := op.Run(); err != nil {
				return nil, err
			}
		}
		return &gsState{perm, op}, nil
	}, func(*gsState) {})
	if err != nil {
		return err
	}
	e.res.set("setup_s", setupS)
	e.res.set("heap_mb", heapMB())

	// Fixture guards, the oracle's expectations and the bases need the
	// matrix arrays: permute the twin the way the facade permuted its own.
	csr, err := sparse.PermuteSym(nat.csr, st.perm)
	if err != nil {
		return err
	}
	if err := guardPacked("gs-wide", st.op.Health()); err != nil {
		return err
	}
	sched, err := opSchedule(st.op)
	if err != nil {
		return err
	}
	if err := guardWidth("gs-wide", meanWidth(sched), gsWidthShare, e.threads); err != nil {
		return err
	}
	base, err := newBases(sf.TrsvMv, csr, e.threads)
	if err != nil {
		return err
	}
	if err := base.inst.Loops.Validate(sched); err != nil {
		return fmt.Errorf("schedule of the operation is invalid: %w", err)
	}
	streams, err := packedStreamBytes(sched, base.inst)
	if err != nil {
		return err
	}
	if err := guard(streams >= gsMinStreamBytes, "gs-wide: packed streams %d B < %d B", streams, gsMinStreamBytes); err != nil {
		return err
	}
	e.res.note("packed streams %.1f MiB, L2 in use %.1f MiB (beyond-L2, within the shared L3)",
		float64(streams)/(1<<20), float64(cacheBytes(2)*int64(e.threads))/(1<<20))
	want := make([][]float64, len(rhs))
	for i := range rhs {
		want[i], _ = oracleExpected(sf.TrsvMv, csr, rhs[i])
	}
	if err := base.verify(rhs[0], want[0]); err != nil {
		return err
	}

	var unitMS []float64
	var ratios ratioBlocks
	var busy time.Duration
	for i := 1; busy.Seconds() < e.seconds; i++ {
		in := i % len(rhs)
		if err := st.op.SetInput(rhs[in]); err != nil {
			return err
		}
		t0 := time.Now()
		_, err := st.op.Run()
		d := time.Since(t0)
		busy += d
		e.res.Attempted++
		if err == nil {
			err = checkVector("gs-wide output", st.op.Output(), want[in])
		}
		if err != nil {
			e.fail(err)
			continue
		}
		unitMS = append(unitMS, ms(d))
		ratios.fused(ms(d))
		if i%gsRatioBlock == 0 {
			u, err := base.unfusedMS()
			if err != nil {
				return err
			}
			s, err := base.seqMS()
			if err != nil {
				return err
			}
			ratios.close(u, s)
		}
	}
	e.setUnitMetrics(unitMS, busy)
	ratios.report(e, "UnfusedParSy and RunSequential on the same matrix")
	return nil
}

// packedStreamBytes compiles and packs sched over inst's kernels and returns
// the size of the operand streams, as the facade did inside NewOperation.
func packedStreamBytes(sched *core.Schedule, inst *combos.Instance) (int64, error) {
	prog, err := core.CompileSchedule(sched, len(inst.Kernels))
	if err != nil {
		return 0, err
	}
	lay, err := relayout.Build(prog, inst.Kernels)
	if err != nil {
		return 0, err
	}
	return 4 * int64(lay.Words()), nil
}

// traceGSWide is the traced pass: the pipeline layer by layer (twice, to
// check that every exact count repeats), then the bench-owned packed runner
// with an exec.Recorder, the other rungs and bases, and the two models.
func traceGSWide(e *env, nat pattern, rhs [][]float64) error {
	tr, r, th := e.tr, e.res, e.threads
	l, csr, err := inspectTwice(e, "gs-wide", nat.csr, func(a *sparse.CSR) (*combos.Instance, error) {
		return combos.Build(combos.TrsvMv, a)
	})
	if err != nil {
		return err
	}
	if err := guardWidth("gs-wide", l.shape.MeanWidth, gsWidthShare, th); err != nil {
		return err
	}
	if err := guard(l.lay != nil && l.streamBytes() >= gsMinStreamBytes, "gs-wide: packed streams %d B < %d B", l.streamBytes(), gsMinStreamBytes); err != nil {
		return err
	}

	want, _ := oracleExpected(sf.TrsvMv, csr, rhs[0])
	copy(l.inst.Input, rhs[0])
	check := func(what string) error {
		return checkVector(what, l.inst.Snapshot(), want)
	}

	// The packed rung, untraced then traced, half of the window each.
	for i := 0; i < gsWarmup; i++ {
		if _, err := l.runner.Run(th); err != nil {
			return err
		}
	}
	window := func(t *tracer) (unitMS []float64, busy time.Duration) {
		for i := 0; busy.Seconds() < e.seconds/2; i++ {
			t0 := time.Now()
			_, err := l.run(t, -1, 0, i, th)
			d := time.Since(t0)
			busy += d
			r.Attempted++
			if err == nil {
				err = check("gs-wide packed output")
			}
			if err != nil {
				e.fail(err)
				continue
			}
			unitMS = append(unitMS, ms(d))
		}
		return unitMS, busy
	}
	plain, plainBusy := window(nil)
	e.setUnitMetrics(plain, plainBusy)
	rec := exec.NewRecorder(1<<16, l.prog.MaxWidth)
	rec.Enable()
	l.runner.SetRecorder(rec)
	mem := markMem()
	tracedMS, _ := window(tr)
	mem.report(r, len(tracedMS))
	l.runner.SetRecorder(nil)
	bd := rec.Breakdown()
	packedMS := median(plain)
	r.set("exec.run_ms_packed", packedMS)
	r.set("kernels.trsv-mv.first_run_ms", plain[0])

	// The compiled rung: the same runner without the packed streams.
	const sideRuns = 15
	l.runner.DetachLayout()
	var compiled []float64
	for i := 0; i < sideRuns; i++ {
		t0 := time.Now()
		if _, err := l.run(tr, -1, 0, i, th); err != nil {
			return err
		}
		compiled = append(compiled, ms(time.Since(t0)))
	}
	if err := check("gs-wide compiled output"); err != nil {
		return err
	}
	if err := l.runner.AttachLayout(l.lay); err != nil {
		return err
	}
	r.set("exec.run_ms_compiled", median(compiled))
	if gain := median(compiled) - packedMS; gain > 0 {
		r.set("relayout.break_even_runs", tr.meanMS("relayout.build")/gain)
	}

	// The unfused and sequential bases on the same kernels.
	unf := l.inst.UnfusedParSy(th, lbc.Params{})
	if err := unf.Inspect(); err != nil {
		return err
	}
	var unfMS, seqMS []float64
	for i := 0; i < sideRuns; i++ {
		id := tr.begin("exec.unfused_run", -1, 0, i)
		t0 := time.Now()
		_, err := unf.Execute()
		unfMS = append(unfMS, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("exec.seq_run", -1, 0, i)
		d, err := l.inst.RunSequential()
		tr.end(id)
		if err != nil {
			return err
		}
		seqMS = append(seqMS, ms(d))
	}
	if err := check("gs-wide sequential output"); err != nil {
		return err
	}
	r.set("exec.unfused_run_ms", median(unfMS))
	l.setExecMetrics(r, packedMS, median(tracedMS), median(seqMS), bd, th)

	// The bandwidth model: computed bytes against a triad of the same size.
	bytes := l.streamBytes() + vectorBytes(l.inst.Kernels, csr.Rows)
	triad := triadGBs(bytes, th)
	achieved := float64(bytes) / (packedMS * 1e6)
	r.set("kernels.bytes_per_unit", float64(bytes))
	r.set("kernels.achieved_gbs", achieved)
	r.set("kernels.triad_gbs", triad)
	r.set("kernels.bw_frac", achieved/triad)
	r.note("kernels.bytes_per_unit is computed from stream and vector sizes, not measured; L2 in use %.1f MiB", float64(cacheBytes(2)*int64(th))/(1<<20))
	return nil
}
