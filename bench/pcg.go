package main

import (
	"fmt"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// pcg-solve: the whole-iteration fused PCG. Each solve is a few hundred
// passes over an 8-loop chain whose vectors fit L2, so what is timed is
// barrier latency, chain dispatch and the block-partial vector kernels.
const (
	pcgGrid   = 100 // Laplacian2D(100): n = 10 000
	pcgTol    = 1e-8
	pcgWarmup = 5 // solves discarded in set-up
	// pcgRatioBlock fused solves are followed by one unfused and one sequential
	// solve (see ratioBlocks).
	pcgRatioBlock = 8
	// pcgBlock is the facade's block size for the block-partial reductions;
	// the chain fingerprint check fails if the facade's default moves.
	pcgBlock = 512
	// pcgWidthShare: with two workers the mean width must reach 1.25. The
	// issue asked for 1.5, but the PCG chain cannot give it on any matrix: its
	// second s-partition holds two thirds of the iterations at width 1 (the
	// all-to-all dependences of the reductions), so the mean is 1.33 and
	// core.model_speedup 1.22 at two threads. The guard still rejects a
	// width-1 schedule.
	pcgWidthShare = 0.25
)

type pcgState struct {
	m    *sf.Matrix
	perm []int
	cg   *sf.FusedCG
}

func runPCGSolve(e *env) error {
	nat := laplacian2D(pcgGrid)
	n := nat.csr.Rows
	if e.tr != nil {
		return tracePCGSolve(e, nat)
	}
	opts := sf.Options{Threads: e.threads}

	st, setupS, err := timeSetups(setupRepsShort, func() (*pcgState, error) {
		mr, perm, err := nat.m.Reorder()
		if err != nil {
			return nil, err
		}
		cg, err := sf.NewFusedCG(mr, sf.FusedCGOptions{Options: opts, Tol: pcgTol, Precondition: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < pcgWarmup; i++ {
			if _, _, _, err := cg.Solve(rhsVector(n, subSeed(e.seed, uint64(i)))); err != nil {
				return nil, err
			}
		}
		return &pcgState{mr, perm, cg}, nil
	}, func(*pcgState) {})
	if err != nil {
		return err
	}
	e.res.set("setup_s", setupS)
	e.res.set("heap_mb", heapMB())

	csr, err := sparse.PermuteSym(nat.csr, st.perm)
	if err != nil {
		return err
	}
	if err := guardPacked("pcg-solve", st.cg.Health()); err != nil {
		return err
	}
	// The facade does not hand out the chain's schedule; the benchmark builds
	// the same chain from the same kernels and checks that it is the same by
	// its fingerprint. ICO is deterministic, so equal fingerprints mean equal
	// schedules.
	rep, err := newPCGReplica(csr, e.threads)
	if err != nil {
		return err
	}
	if err := guard(rep.fingerprint == st.cg.Fingerprint(), "pcg-solve: the benchmark's chain is not the facade's (fingerprints differ)"); err != nil {
		return err
	}
	l, err := tracedInspect(nil, -1, 0, 0, rep.inst, e.threads)
	if err != nil {
		return err
	}
	if err := guardWidth("pcg-solve", l.shape.MeanWidth, pcgWidthShare, e.threads); err != nil {
		return err
	}

	solveOK := func(what string, x, b []float64, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if rr := relResidual(csr, x, b); !(rr <= 10*pcgTol) {
			return fmt.Errorf("%s: true residual %.3g exceeds %.0e", what, rr, 10*pcgTol)
		}
		return nil
	}
	unfused := func(b []float64, threads int) (float64, error) {
		t0 := time.Now()
		x, _, err := st.m.SolveCG(b, sf.CGOptions{Options: sf.Options{Threads: threads}, Tol: pcgTol, Precondition: true})
		d := time.Since(t0)
		return ms(d), solveOK("base solve", x, b, err)
	}

	var unitMS []float64
	var ratios ratioBlocks
	var busy time.Duration
	iters := 0
	for i := 1; busy.Seconds() < e.seconds; i++ {
		b := rhsVector(n, subSeed(e.seed, uint64(1000+i)))
		t0 := time.Now()
		x, it, _, err := st.cg.Solve(b)
		d := time.Since(t0)
		busy += d
		e.res.Attempted++
		if err := solveOK("fused solve", x, b, err); err != nil {
			e.fail(err)
			continue
		}
		unitMS = append(unitMS, ms(d))
		ratios.fused(ms(d))
		iters += it
		if i%pcgRatioBlock == 0 {
			u, err := unfused(b, e.threads)
			if err != nil {
				return err
			}
			s, err := unfused(b, 1)
			if err != nil {
				return err
			}
			ratios.close(u, s)
		}
	}
	e.setUnitMetrics(unitMS, busy)
	e.res.note("%.1f iterations per solve", float64(iters)/float64(max(len(unitMS), 1)))
	ratios.report(e, fmt.Sprintf("Matrix.SolveCG at %d threads and at 1, same right-hand side", e.threads))
	return nil
}

// pcgReplica is the PCG chain of fusedcg.go rebuilt from the same public
// kernel constructors, so that the traced pass can inspect and run it one
// layer at a time.
type pcgReplica struct {
	inst        *combos.Instance
	fingerprint string
	// reset loads the state the first chain pass of a solve starts from.
	reset func(b []float64)
}

func newPCGReplica(a *sparse.CSR, threads int) (*pcgReplica, error) {
	n, block := a.Rows, pcgBlock
	nb := (n + block - 1) / block
	vec := func() []float64 { return make([]float64, n) }
	x, r, p, q, y, z := vec(), vec(), vec(), vec(), vec(), vec()
	partPQ, partRZ, partRR := make([]float64, nb), make([]float64, nb), make([]float64, nb)
	rzCell := []float64{1}

	lc := a.Lower().ToCSC()
	if err := kernels.RunSeq(kernels.NewSpIC0CSC(lc)); err != nil {
		return nil, fmt.Errorf("IC0 factorization: %w", err)
	}
	fwd := kernels.NewSpTRSVCSR(lc.ToCSR(), r, y)
	bwd := kernels.NewSpTRSVTransCSC(lc, y, z)
	dot := kernels.NewVecDotDual(r, z, partRZ, r, r, partRR, block)
	chain, err := combos.BuildChain(combos.ChainSpec{Name: "pcg", Links: []combos.ChainLink{
		{K: kernels.NewSpMVCSR(a, p, q)},
		{K: kernels.NewVecDot(p, q, partPQ, block), F: core.FBlockAgg(nb, n, block)},
		{K: kernels.NewVecAxpyDot(p, x, rzCell, partPQ, +1, block, true), F: core.FDense(nb, nb)},
		{K: kernels.NewVecAxpyDot(q, r, rzCell, partPQ, -1, block, false), F: core.FDiagonal(nb)},
		{K: fwd, F: core.FBlockExpand(n, nb, block)},
		{K: bwd, F: core.FAntiDiagonal(n)},
		{K: dot, F: core.FBlockAggFlip(nb, n, block)},
		{K: kernels.NewVecXpayDot(z, p, rzCell, partRZ, block), F: core.FDense(nb, nb)},
	}})
	if err != nil {
		return nil, err
	}
	if !chain.Fused() {
		return nil, fmt.Errorf("the PCG chain did not compose into one group")
	}
	d := lbc.DefaultParams()
	key := cache.Fingerprint(a, cache.Params{
		Threads: threads, LBCInitialCut: d.InitialCut, LBCAgg: d.Agg,
		ChainLen:     chain.NumKernels(),
		ChainKernels: append(chain.KernelIDs(), fmt.Sprintf("block=%d", block)),
	})
	return &pcgReplica{
		inst:        chain.Groups[0],
		fingerprint: key.String(),
		reset: func(b []float64) {
			for i := range x {
				x[i] = 0
			}
			copy(r, b)
			_ = kernels.RunSeq(fwd) // the factor is fixed and already ran: cannot break down
			_ = kernels.RunSeq(bwd)
			copy(p, z)
			_ = kernels.RunSeq(dot)
			rz := 0.0
			for _, v := range partRZ {
				rz += v
			}
			rzCell[0] = rz
		},
	}, nil
}

// tracePCGSolve is the traced pass: the chain's pipeline layer by layer, the
// chain pass on a bench-owned runner with an exec.Recorder, and the facade's
// solves under spans for the solver metrics.
func tracePCGSolve(e *env, nat pattern) error {
	tr, r, th := e.tr, e.res, e.threads
	n := nat.csr.Rows
	var rep *pcgReplica
	l, csr, err := inspectTwice(e, "pcg-solve", nat.csr, func(a *sparse.CSR) (*combos.Instance, error) {
		var err error
		if rep, err = newPCGReplica(a, th); err != nil {
			return nil, err
		}
		return rep.inst, nil
	})
	if err != nil {
		return err
	}
	if err := guardWidth("pcg-solve", l.shape.MeanWidth, pcgWidthShare, th); err != nil {
		return err
	}
	if err := guard(l.lay != nil, "pcg-solve: the chain did not pack"); err != nil {
		return err
	}

	// One chain pass from the state a solve starts in, on the bench-owned
	// runner: a quarter of the window untraced, a quarter with the recorder.
	b0 := rhsVector(n, subSeed(e.seed, 0))
	pass := func(t *tracer, seconds float64) []float64 {
		var out []float64
		var busy time.Duration
		for i := 0; busy.Seconds() < seconds; i++ {
			rep.reset(b0)
			t0 := time.Now()
			_, err := l.run(t, -1, 0, i, th)
			d := time.Since(t0)
			busy += d
			if err != nil {
				e.fail(err)
				continue
			}
			out = append(out, ms(d))
		}
		return out
	}
	pass(nil, 0.2) // warm the pool and the vectors
	plain := pass(nil, e.seconds/4)
	rec := exec.NewRecorder(1<<16, l.prog.MaxWidth)
	rec.Enable()
	l.runner.SetRecorder(rec)
	tracedMS := pass(tr, e.seconds/4)
	l.runner.SetRecorder(nil)
	bd := rec.Breakdown()
	passMS := median(plain)
	r.set("exec.run_ms_packed", passMS)
	var seqMS []float64
	for i := 0; i < 50; i++ {
		rep.reset(b0)
		d, err := l.inst.RunSequential()
		if err != nil {
			return err
		}
		seqMS = append(seqMS, ms(d))
	}
	l.setExecMetrics(r, passMS, median(tracedMS), median(seqMS), bd, th)
	bytes := l.streamBytes() + vectorBytes(l.inst.Kernels, n)
	r.set("kernels.bytes_per_unit", float64(bytes))
	r.set("kernels.achieved_gbs", float64(bytes)/(passMS*1e6))
	r.note("exec.* and kernels.* are per chain pass (one PCG iteration); the vectors fit L2, so no triad ceiling is reported")

	return tracePCGFacade(e, nat, csr)
}

// tracePCGFacade times whole solves through the facade for the solver.*
// metrics and splits each solve's wall time into executor and host time.
func tracePCGFacade(e *env, nat pattern, csr *sparse.CSR) error {
	tr, r := e.tr, e.res
	n := csr.Rows
	// The facade reorders for itself; its permutation equals the traced
	// pass's (nested dissection is deterministic), so csr is its matrix.
	mr, _, err := nat.m.Reorder()
	if err != nil {
		return err
	}
	cg, err := sf.NewFusedCG(mr, sf.FusedCGOptions{Options: sf.Options{Threads: e.threads}, Tol: pcgTol, Precondition: true})
	if err != nil {
		return err
	}
	for i := 0; i < pcgWarmup; i++ {
		if _, _, _, err := cg.Solve(rhsVector(n, subSeed(e.seed, uint64(i)))); err != nil {
			return err
		}
	}
	var iters, firstIters, barriers int
	var wall, execT, wait time.Duration
	var lastRes float64
	var unitMS []float64
	mem := markMem()
	units := 0
	for i := 0; wall.Seconds() < e.seconds/2; i++ {
		b := rhsVector(n, subSeed(e.seed, uint64(1000+i)))
		id := tr.begin("solver.solve", -1, 0, i)
		t0 := time.Now()
		x, it, rep, err := cg.Solve(b)
		d := time.Since(t0)
		tr.end(id)
		wall += d
		r.Attempted++
		if err != nil {
			e.fail(err)
			continue
		}
		lastRes = relResidual(csr, x, b)
		if !(lastRes <= 10*pcgTol) {
			e.fail(fmt.Errorf("fused solve: true residual %.3g exceeds %.0e", lastRes, 10*pcgTol))
			continue
		}
		if units == 0 {
			firstIters = it
		}
		units++
		unitMS = append(unitMS, ms(d))
		iters += it
		barriers += rep.Barriers
		execT += rep.Time
		wait += rep.BarrierWait
	}
	mem.report(r, units)
	if units == 0 || iters == 0 {
		return nil
	}
	e.setUnitMetrics(unitMS, wall)
	// The first solve's count repeats exactly for a seed; the mean over a
	// time-bounded window does not.
	r.set("solver.iterations", float64(firstIters))
	r.note("solver.iterations is the first solve's; mean over %d solves %.1f", units, float64(iters)/float64(units))
	r.set("solver.barriers_per_iter", float64(barriers)/float64(iters))
	r.set("solver.exec_ms_per_iter", ms(execT)/float64(iters))
	r.set("solver.host_ms_per_iter", ms(wall-execT)/float64(iters))
	r.set("solver.barrier_wait_frac", float64(wait)/float64(execT))
	r.set("solver.final_rel_residual", lastRes)
	return nil
}
