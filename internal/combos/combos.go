// Package combos assembles the kernel combinations of the paper's Table 1
// (plus SpMV-SpMV from figure 10 and the Gauss-Seidel chain of figure 9)
// over a concrete matrix, and exposes every implementation the evaluation
// compares:
//
//	sparse fusion        — ICO schedule, fused executor (the contribution)
//	unfused ParSy        — LBC per kernel DAG, kernels run back to back
//	unfused MKL          — row-parallel SpMV, level-set TRSV, sequential
//	                       factorizations
//	fused wavefront      — wavefront schedule of the joint DAG
//	fused LBC            — chordalize + LBC on the joint DAG
//	fused DAGP           — multilevel acyclic partitioning of the joint DAG
//
// Each implementation is the steps (compiled runners) its inspector builds;
// it reports its inspection time and executor statistics, which cmd/figures
// and the root benchmarks turn into the paper's figures.
package combos

import (
	"errors"
	"fmt"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/dagp"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/wavefront"
)

// ID selects a kernel combination; values 1-6 follow Table 1.
type ID int

const (
	TrsvTrsv  ID = 1 // SpTRSV CSR -> SpTRSV CSR
	DscalIlu0 ID = 2 // DSCAL CSR -> SpILU0 CSR
	TrsvMv    ID = 3 // SpTRSV CSR -> SpMV CSC
	Ic0Trsv   ID = 4 // SpIC0 CSC -> SpTRSV CSC
	Ilu0Trsv  ID = 5 // SpILU0 CSR -> SpTRSV CSR
	DscalIc0  ID = 6 // DSCAL CSC -> SpIC0 CSC
	MvMv      ID = 7 // SpMV CSR -> SpMV CSR (figure 10)
)

// Names mirrors the paper's figure labels.
var Names = map[ID]string{
	TrsvTrsv:  "TRSV-TRSV",
	DscalIlu0: "DAD-ILU0",
	TrsvMv:    "TRSV-MV",
	Ic0Trsv:   "IC0-TRSV",
	Ilu0Trsv:  "ILU0-TRSV",
	DscalIc0:  "DAD-IC0",
	MvMv:      "MV-MV",
}

// All lists the six Table 1 combinations.
var All = []ID{TrsvTrsv, DscalIlu0, TrsvMv, Ic0Trsv, Ilu0Trsv, DscalIc0}

// Instance is one combination instantiated over one matrix: its kernels in
// program order, the fusion input (DAGs plus F) or the means to build it, the
// reuse ratio the inspector reads, and an observable result for verification.
type Instance struct {
	ID      ID
	Name    string
	Kernels []kernels.Kernel
	// Loops and Reuse are the inspector's input, derived from the kernels:
	// filled when Build, BuildGS or BuildChain returns, for the callers that
	// read them, until Release drops them. An instance from Assemble leaves
	// them unset and builds the input afresh on every Fusion call, keeping
	// none of it; one from CloneForSession has no input at all. Running the
	// kernels needs neither.
	Loops *core.Loops
	Reuse float64
	// Input is the combination's input vector (nil for matrix-only
	// combinations such as DSCAL->factor); callers may overwrite it between
	// runs. Output is the observable result (the last kernel's), the storage
	// Snapshot copies.
	Input, Output []float64
	// GSX0 is the sweep-chain input of a BuildGS instance (copy Output into
	// it between executions to iterate the solver); nil otherwise.
	GSX0 []float64

	// buildF builds the dependency matrices F between adjacent loops for
	// Fusion, in loop order; nil once released.
	buildF func() []*sparse.CSR
	// sourceSum, when set, is relayout.SourceSum of Kernels from checksums
	// the matrix memoizes (the pure combinations, whose packed sources are
	// the shared sparse.Forms arrays). It captures the Forms' checksum funcs,
	// never the Forms: an instance must not keep alive a matrix form its
	// kernels do not read.
	sourceSum func() uint64
}

// Snapshot returns a copy of Output.
func (in *Instance) Snapshot() []float64 { return append([]float64(nil), in.Output...) }

// Fusion returns the inspector's input over the instance's kernels — kernel
// DAGs, F and the reuse ratio, the expensive half of instantiating a
// combination — and reports whether this call built it. An instance whose
// constructor filled Loops returns them; one from Assemble builds a fresh
// input that it keeps no reference to, so the input lives only while the
// caller holds it. A released instance, or a session clone, has no input to
// give and must not be asked. Safe for concurrent use.
func (in *Instance) Fusion() (loops *core.Loops, reuse float64, built bool) {
	if in.Loops != nil {
		return in.Loops, in.Reuse, false
	}
	g := make([]*dag.Graph, len(in.Kernels))
	for i, k := range in.Kernels {
		g[i] = k.DAG()
	}
	return &core.Loops{G: g, F: in.buildF()}, core.ReuseRatioChain(in.Kernels), true
}

// Release drops the fusion input the instance's constructor filled in and
// the builder of its F, for a holder that keeps the instance past inspection
// to run its kernels: the instance can no longer answer Fusion.
func (in *Instance) Release() {
	in.Loops, in.buildF = nil, nil
}

// SourceSum is relayout.SourceSum over the instance's kernels: the checksum a
// packed layout of them carries. The pure combinations answer from their
// matrix's memoized checksums instead of re-hashing the value arrays.
func (in *Instance) SourceSum() (uint64, bool) {
	if in.sourceSum != nil {
		return in.sourceSum(), true
	}
	return relayout.SourceSum(in.Kernels, len(in.Kernels))
}

// FlopCount sums the kernels' floating-point work.
func (in *Instance) FlopCount() int64 {
	var f int64
	for _, k := range in.Kernels {
		f += k.Flops()
	}
	return f
}

// Build instantiates combination id over the SPD matrix a. Input vectors are
// derived deterministically from the matrix size.
func Build(id ID, a *sparse.CSR) (*Instance, error) {
	in, err := Assemble(id, sparse.NewForms(a))
	if err != nil {
		return nil, err
	}
	in.Loops, in.Reuse, _ = in.Fusion()
	return in, nil
}

// Assemble is the half of Build that running the kernels needs — matrices,
// vectors, kernels — over the matrix forms src memoizes; Fusion builds the
// fusion input for whoever asks. An operation opened on a cached schedule
// stops here. The pure combinations (the CloneForSession set) read src's
// shared forms; the factorization combinations write matrix values and take
// private copies.
func Assemble(id ID, src *sparse.Forms) (*Instance, error) {
	a := src.A
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("combos: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	in := &Instance{ID: id, Name: Names[id]}
	vec := func(seed int64) []float64 { return sparse.RandomVec(n, seed) }
	// Each combination builds its two kernels; F, which Fusion builds, is the
	// diagonal unless the combination names another builder.
	var k1, k2 kernels.Kernel
	in.buildF = func() []*sparse.CSR { return []*sparse.CSR{core.FDiagonal(n)} }
	switch id {
	case TrsvTrsv:
		l := src.Lower()
		y, x, z := vec(1), make([]float64, n), make([]float64, n)
		k1, k2 = kernels.NewSpTRSVCSR(l, y, x), kernels.NewSpTRSVCSR(l, x, z)
		lsum := src.LowerSum
		in.sourceSum = func() uint64 { return sparse.FoldSums(lsum(), lsum()) }
		in.Input, in.Output = y, z
	case DscalIlu0:
		work := a.Clone()
		ilu, err := kernels.NewSpILU0CSR(work)
		if err != nil {
			return nil, err
		}
		// DSCAL rewrites every entry of work on each run, so it owns the
		// replay; the factor restoring its own snapshot would clobber the
		// chain in kernel-at-a-time order.
		ilu.DisableRestore()
		k1, k2 = kernels.NewDScalCSR(work, kernels.JacobiScaling(a), work), ilu
		in.Output = work.X
	case TrsvMv:
		l := src.Lower()
		ac := src.CSC()
		x, y, z := vec(1), make([]float64, n), make([]float64, n)
		k1, k2 = kernels.NewSpTRSVCSR(l, x, y), kernels.NewSpMVCSC(ac, y, z)
		in.buildF = func() []*sparse.CSR { return []*sparse.CSR{core.FTrsvToMVCSC(ac)} }
		lsum, csum := src.LowerSum, src.CSCSum
		in.sourceSum = func() uint64 { return sparse.FoldSums(lsum(), csum()) }
		in.Input, in.Output = x, z
	case Ic0Trsv:
		lc := a.Lower().ToCSC()
		x, y := vec(1), make([]float64, n)
		k1, k2 = kernels.NewSpIC0CSC(lc), kernels.NewSpTRSVCSC(lc, x, y)
		in.Input, in.Output = x, y
	case Ilu0Trsv:
		work := a.Clone()
		b, y := vec(1), make([]float64, n)
		ilu, err := kernels.NewSpILU0CSR(work)
		if err != nil {
			return nil, err
		}
		k1, k2 = ilu, kernels.NewSpTRSVUnitLowerCSR(work, b, y)
		in.Input, in.Output = b, y
	case DscalIc0:
		lc := a.Lower().ToCSC()
		ic := kernels.NewSpIC0CSC(lc)
		ic.DisableRestore() // DSCAL owns the replay, as in DscalIlu0
		k1, k2 = kernels.NewDScalCSC(lc, kernels.JacobiScaling(a), lc), ic
		in.Output = lc.X
	case MvMv:
		x, y, z := vec(1), make([]float64, n), make([]float64, n)
		k1, k2 = kernels.NewSpMVCSR(a, x, y), kernels.NewSpMVCSR(a, y, z)
		in.buildF = func() []*sparse.CSR { return []*sparse.CSR{core.FPattern(a)} }
		sum := src.Sum
		in.sourceSum = func() uint64 { return sparse.FoldSums(sum(), sum()) }
		in.Input, in.Output = x, z
	default:
		return nil, fmt.Errorf("combos: unknown combination %d", id)
	}
	in.Kernels = []kernels.Kernel{k1, k2}
	return in, nil
}

// BuildGS builds the multi-loop Gauss-Seidel chain (paper section 4.3):
// nSweeps sweeps of x <- L \ (b - U*x), each sweep contributing an SpMV+b
// loop and an SpTRSV loop (2*nSweeps fused loops total).
func BuildGS(a *sparse.CSR, nSweeps int) (*Instance, error) {
	if nSweeps < 1 {
		return nil, fmt.Errorf("combos: need at least one sweep")
	}
	n := a.Rows
	l := a.Lower()
	u := a.StrictUpper()
	negU := u.Clone()
	for i := range negU.X {
		negU.X[i] = -negU.X[i]
	}
	b := sparse.RandomVec(n, 3)
	in := &Instance{ID: 0, Name: fmt.Sprintf("GS-%dsweeps", nSweeps)}
	x := make([]float64, n) // x_0 = 0
	in.GSX0 = x
	for s := 0; s < nSweeps; s++ {
		t, xNext := make([]float64, n), make([]float64, n)
		in.Kernels = append(in.Kernels,
			kernels.NewSpMVPlusCSR(negU, x, b, t), // t = b - U*x
			kernels.NewSpTRSVCSR(l, t, xNext))     // xNext = L \ t
		x = xNext
	}
	// Per sweep s > 0 the SpMV reads x produced by the previous TRSV (row i
	// needs x[j] for every nonzero U[i][j]); every TRSV reads t[i] from its
	// own SpMV.
	in.buildF = func() []*sparse.CSR {
		fs := make([]*sparse.CSR, 0, 2*nSweeps-1)
		for s := 0; s < nSweeps; s++ {
			if s > 0 {
				fs = append(fs, core.FPattern(u))
			}
			fs = append(fs, core.FDiagonal(n))
		}
		return fs
	}
	in.Loops, in.Reuse, _ = in.Fusion()
	in.Input, in.Output = b, x
	return in, nil
}

// ErrNotCloneable reports a combination whose kernels overwrite matrix values
// during a run (the factorization chains and Gauss-Seidel): concurrent
// sessions over one shared matrix would race on those writes, so such
// instances serve one client at a time.
var ErrNotCloneable = errors.New("combos: combination writes matrix values and cannot be cloned for concurrent sessions")

// CloneForSession returns a copy of the instance with fresh input, output,
// and intermediate vectors over the same matrices, and no fusion input: a
// clone runs a schedule inspected for its base, never inspects one. The
// clone is what a serving client solves on: the matrices and the schedule it
// runs are shared, the per-run storage is private, so any number of clones
// may execute the same cached schedule concurrently.
// Only the pure combinations — TRSV-TRSV, TRSV-MV, MV-MV, whose kernels never
// write matrix values — are cloneable; the rest return ErrNotCloneable.
//
// The clone's Input starts as a copy of the base instance's input, so an
// unmodified clone computes the base result (the bit-identity oracle).
func (in *Instance) CloneForSession() (*Instance, error) {
	c := &Instance{ID: in.ID, Name: in.Name, sourceSum: in.sourceSum}
	n := len(in.Output)
	mid := make([]float64, n)
	out := make([]float64, n)
	input := append([]float64(nil), in.Input...)
	switch in.ID {
	case TrsvTrsv:
		// k1 solves L*mid = input, k2 solves L*out = mid.
		k1 := in.Kernels[0].(*kernels.SpTRSVCSR)
		k2 := in.Kernels[1].(*kernels.SpTRSVCSR)
		c.Kernels = []kernels.Kernel{k1.WithVectors(input, mid), k2.WithVectors(mid, out)}
	case TrsvMv:
		// k1 solves L*mid = input, k2 scatters out += A[:,j]*mid[j].
		k1 := in.Kernels[0].(*kernels.SpTRSVCSR)
		k2 := in.Kernels[1].(*kernels.SpMVCSC)
		c.Kernels = []kernels.Kernel{k1.WithVectors(input, mid), k2.WithVectors(mid, out)}
	case MvMv:
		// k1 computes mid = A*input, k2 computes out = A*mid.
		k1 := in.Kernels[0].(*kernels.SpMVCSR)
		k2 := in.Kernels[1].(*kernels.SpMVCSR)
		c.Kernels = []kernels.Kernel{k1.WithVectors(input, mid), k2.WithVectors(mid, out)}
	default:
		return nil, ErrNotCloneable
	}
	c.Input, c.Output = input, out
	return c, nil
}

// RunSequential executes the kernels back to back, single-threaded, and
// returns the elapsed time. This is the baseline of the paper's NER metric.
// A numerical breakdown stops the chain and is returned.
func (in *Instance) RunSequential() (time.Duration, error) {
	t0 := time.Now()
	for _, k := range in.Kernels {
		if err := kernels.RunSeq(k); err != nil {
			return time.Since(t0), err
		}
	}
	return time.Since(t0), nil
}

// Step is one step of an implementation: Runner executes Kernels under the
// schedule it was compiled from or, when Runner is nil, Kernels run one after
// another on the calling goroutine.
type Step struct {
	Kernels []kernels.Kernel
	Runner  *exec.Runner
}

// Impl is one schedulable implementation of an instance: the steps its
// inspector compiles, executed in order. Inspect must be called once before
// Execute; Execute may be repeated.
type Impl struct {
	Name        string
	InspectTime time.Duration
	threads     int
	inspect     func() ([]Step, error)
	steps       []Step // nil until Inspect succeeds
}

// Inspect runs (and times) the implementation's inspector.
func (im *Impl) Inspect() error {
	t0 := time.Now()
	steps, err := im.inspect()
	im.InspectTime = time.Since(t0)
	if err != nil {
		steps = nil
	}
	im.steps = steps
	return err
}

// Steps returns what Execute runs, in order; nil until Inspect succeeds.
func (im *Impl) Steps() []Step { return im.steps }

// Execute runs the steps in order, inspecting first if Inspect has not
// succeeded. Elapsed is the wall-clock time of all steps; Barriers,
// PotentialGain and Fold are the runners' sums. The first error abandons the
// remaining steps.
func (im *Impl) Execute() (st exec.Stats, err error) {
	if im.steps == nil {
		if err := im.Inspect(); err != nil {
			return exec.Stats{}, err
		}
	}
	t0 := time.Now()
	defer func() { st.Elapsed = time.Since(t0) }()
	for _, s := range im.steps {
		if s.Runner == nil {
			for _, k := range s.Kernels {
				if err := kernels.RunSeq(k); err != nil {
					return st, err
				}
			}
			continue
		}
		rs, err := s.Runner.Run(im.threads)
		st.Barriers += rs.Barriers
		st.PotentialGain += rs.PotentialGain
		st.Fold += rs.Fold
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// fuse inspects the instance with ICO and compiles the schedule onto the rung
// the facade would serve it from (exec.CompileFused): packed where the chain
// re-lays out, compiled otherwise.
func (in *Instance) fuse(threads int) (Step, error) {
	sched, err := core.ICO(in.Loops, core.Params{Threads: threads, ReuseRatio: in.Reuse})
	if err != nil {
		return Step{}, err
	}
	r, err := exec.CompileFused(in.Kernels, &cache.Artifacts{Schedule: sched}, nil)
	return Step{Kernels: in.Kernels, Runner: r}, err
}

// SparseFusion is the paper's contribution: ICO over the instance's DAGs.
// Inspection compiles the schedule and re-lays the operands out in schedule
// order — everything before the first run is charged to InspectTime, as the
// paper charges it — so Execute times the rung library users are served from.
func (in *Instance) SparseFusion(threads int) *Impl {
	return &Impl{Name: "sparse-fusion", threads: threads, inspect: func() ([]Step, error) {
		s, err := in.fuse(threads)
		return []Step{s}, err
	}}
}

// UnfusedParSy schedules every kernel's own DAG with LBC (wavefront
// parallelism for edge-free loops) and runs the kernels back to back.
func (in *Instance) UnfusedParSy(threads int, lp lbc.Params) *Impl {
	return in.unfusedImpl("unfused-parsy", threads, func(k kernels.Kernel) (*partition.Partitioning, error) {
		return lbc.Schedule(k.DAG(), threads, lp)
	})
}

// unfusedImpl wraps a per-kernel scheduler into an Impl: inspection schedules
// and compiles every kernel's own DAG into a step of its own, so execution
// runs the kernels back to back. A nil partitioning means the kernel runs
// sequentially.
func (in *Instance) unfusedImpl(name string, threads int, schedule func(k kernels.Kernel) (*partition.Partitioning, error)) *Impl {
	return &Impl{Name: name, threads: threads, inspect: func() ([]Step, error) {
		steps := make([]Step, len(in.Kernels))
		for i, k := range in.Kernels {
			steps[i].Kernels = in.Kernels[i : i+1]
			p, err := schedule(k)
			if err != nil {
				return nil, err
			}
			if p == nil {
				continue
			}
			if steps[i].Runner, err = exec.CompilePartitioned(steps[i].Kernels, p); err != nil {
				return nil, err
			}
		}
		return steps, nil
	}}
}

// UnfusedMKL mimics MKL's inspector-executor routines: level-set TRSV,
// single-barrier chunked parallel loops, and sequential factorizations.
func (in *Instance) UnfusedMKL(threads int) *Impl {
	return in.unfusedImpl("unfused-mkl", threads, func(k kernels.Kernel) (*partition.Partitioning, error) {
		switch k.(type) {
		case *kernels.SpILU0CSR, *kernels.SpIC0CSC:
			return nil, nil // sequential (MKL's dcsrilu0)
		}
		return wavefront.Schedule(k.DAG(), threads)
	})
}

// JointGraph builds the joint DAG of the instance's chain — any length, via
// dag.JointChain (the baselines' input; exported for the figure and benchmark
// harnesses, and the structural oracle of the chain-composition tests).
func (in *Instance) JointGraph() (*dag.Graph, error) { return in.joint() }

// joint builds the joint DAG of the instance's kernel chain.
func (in *Instance) joint() (*dag.Graph, error) {
	return dag.JointChain(in.Loops.G, in.Loops.F)
}

// jointImpl wraps a joint-DAG scheduler into an Impl: inspection builds the
// joint DAG, schedules it, and compiles the result; execution runs the
// compiled form. The joint baselines are the paper's, over a kernel pair, so
// longer chains are rejected.
func (in *Instance) jointImpl(name string, threads int, schedule func(*dag.Graph) (*partition.Partitioning, error)) *Impl {
	return &Impl{Name: name, threads: threads, inspect: func() ([]Step, error) {
		if len(in.Kernels) != 2 {
			return nil, fmt.Errorf("combos: joint-DAG baselines support exactly 2 kernels, got %d", len(in.Kernels))
		}
		j, err := in.joint()
		if err != nil {
			return nil, err
		}
		p, err := schedule(j)
		if err != nil {
			return nil, err
		}
		r, err := exec.CompilePartitioned(in.Kernels, p)
		return []Step{{Kernels: in.Kernels, Runner: r}}, err
	}}
}

// JointWavefront is the fused-wavefront baseline: topological wavefronts of
// the joint DAG.
func (in *Instance) JointWavefront(threads int) *Impl {
	return in.jointImpl("fused-wavefront", threads, func(j *dag.Graph) (*partition.Partitioning, error) {
		return wavefront.Schedule(j, threads)
	})
}

// JointLBC is the fused-LBC baseline: the joint DAG is made chordal (as
// ParSy's LBC expects L-factor DAGs; the dominant inspection cost the paper
// reports) and then LBC-partitioned at the paper's tuning.
func (in *Instance) JointLBC(threads int) *Impl {
	return in.jointImpl("fused-lbc", threads, func(j *dag.Graph) (*partition.Partitioning, error) {
		return lbc.ScheduleChordal(j, threads, lbc.Params{})
	})
}

// JointDAGP is the fused-DAGP baseline: multilevel acyclic partitioning of
// the joint DAG.
func (in *Instance) JointDAGP(threads int) *Impl {
	return in.jointImpl("fused-dagp", threads, func(j *dag.Graph) (*partition.Partitioning, error) {
		return dagp.Schedule(j, threads, dagp.Params{})
	})
}
