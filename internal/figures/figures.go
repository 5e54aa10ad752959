// Package figures regenerates every table and figure of the paper's
// evaluation (section 4) from this repository's implementations. Each Fig*
// function returns typed rows; cmd/figures renders them as CSV and text, and
// the root benchmarks drive them under testing.B.
//
// Absolute numbers differ from the paper (different hardware, Go runtime,
// synthetic suite); the shapes under test are documented per function and
// asserted in figures_test.go and EXPERIMENTS.md.
package figures

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sparsefusion/internal/cachesim"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/dagp"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/locality"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
	"sparsefusion/internal/telemetry"
)

// Progress, when non-nil, receives one line per completed measurement so
// long-running sweeps (the standard suite) show liveness.
var Progress func(string)

func progress(format string, args ...any) {
	if Progress != nil {
		Progress(fmt.Sprintf(format, args...))
	}
}

// ---------------------------------------------------------------- figure 1

// Fig1 reproduces figure 1: iterations per wavefront for SpIC0 followed by
// SpTRSV executed as two separate DAGs (the SpTRSV wavefronts renumbered to
// start after SpIC0's, as running them back to back implies) versus the
// joint DAG of both kernels.
type Fig1 struct {
	Unfused []int // width of wavefront w when kernels run separately
	Joint   []int // width of wavefront w in the joint DAG
}

func RunFig1(a *sparse.CSR) (*Fig1, error) {
	in, err := combos.Build(combos.Ic0Trsv, a)
	if err != nil {
		return nil, err
	}
	widths := func(g *dag.Graph) ([]int, error) {
		sets, err := g.LevelSets()
		if err != nil {
			return nil, err
		}
		ws := make([]int, len(sets))
		for i, s := range sets {
			ws[i] = len(s)
		}
		return ws, nil
	}
	w1, err := widths(in.Loops.G[0])
	if err != nil {
		return nil, err
	}
	w2, err := widths(in.Loops.G[1])
	if err != nil {
		return nil, err
	}
	joint, err := in.JointGraph()
	if err != nil {
		return nil, err
	}
	wj, err := widths(joint)
	if err != nil {
		return nil, err
	}
	return &Fig1{Unfused: append(append([]int{}, w1...), w2...), Joint: wj}, nil
}

// ---------------------------------------------------------------- figure 5

// Fig5Row is one (matrix, combination) point of figure 5: GFLOP/s of sparse
// fusion, the best unfused implementation (ParSy or MKL) and the best fused
// joint-DAG implementation (wavefront, LBC or DAGP).
type Fig5Row struct {
	Matrix      string
	NNZ         int
	Combo       string
	Fusion      float64
	BestUnfused float64
	BestFused   float64
}

// RunFig5 measures every combination over every suite matrix, taking the
// minimum execution time over reps runs per implementation.
func RunFig5(entries []suite.Entry, ids []combos.ID, threads, reps int) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, e := range entries {
		a := e.Gen()
		for _, id := range ids {
			in, err := combos.Build(id, a)
			if err != nil {
				return nil, err
			}
			flops := in.FlopCount()
			t := func(im *combos.Impl) (time.Duration, error) { return bestOf(im, reps) }
			sf, err := t(in.SparseFusion(threads))
			if err != nil {
				return nil, err
			}
			parsy, err := t(in.UnfusedParSy(threads, lbc.Params{}))
			if err != nil {
				return nil, err
			}
			mkl, err := t(in.UnfusedMKL(threads))
			if err != nil {
				return nil, err
			}
			jw, err := t(in.JointWavefront(threads))
			if err != nil {
				return nil, err
			}
			jl, err := t(in.JointLBC(threads))
			if err != nil {
				return nil, err
			}
			jd, err := t(in.JointDAGP(threads))
			if err != nil {
				return nil, err
			}
			progress("fig5 %s %s done", e.Name, in.Name)
			rows = append(rows, Fig5Row{
				Matrix:      e.Name,
				NNZ:         a.NNZ(),
				Combo:       in.Name,
				Fusion:      telemetry.GFlops(flops, sf),
				BestUnfused: telemetry.GFlops(flops, minDuration(parsy, mkl)),
				BestFused:   telemetry.GFlops(flops, minDuration(jw, jl, jd)),
			})
		}
	}
	return rows, nil
}

func bestOf(im *combos.Impl, reps int) (time.Duration, error) {
	if err := im.Inspect(); err != nil {
		return 0, err
	}
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		st, err := im.Execute()
		if err != nil {
			return 0, err
		}
		if best == 0 || st.Elapsed < best {
			best = st.Elapsed
		}
	}
	return best, nil
}

// ---------------------------------------------------------------- figure 6

// Fig6Row is one combination of figure 6: simulated average memory access
// latency (top) and measured potential gain (bottom) for sparse fusion,
// fused LBC and unfused ParSy, normalized to ParSy.
type Fig6Row struct {
	Combo                               string
	LatFusion, LatFusedLBC, LatParSy    float64 // normalized over ParSy
	GainFusion, GainFusedLBC, GainParSy float64 // normalized over ParSy
	RawLatParSy                         float64 // cycles/access before normalization
	RawGainParSy                        time.Duration
}

// RunFig6 evaluates all six combinations on one matrix (the paper uses
// bone010; suite.Bone010Standin substitutes). Each implementation is
// inspected once; its latency is the simulation of the steps it executes —
// sparse fusion on the rung it is served from, packed where the chain packs —
// and its gain the median over five of its executions.
func RunFig6(a *sparse.CSR, threads int) ([]Fig6Row, error) {
	cfg := cachesim.Default()
	var rows []Fig6Row
	for _, id := range combos.All {
		in, err := combos.Build(id, a)
		if err != nil {
			return nil, err
		}
		// Sparse fusion, fused LBC on the joint DAG, and unfused ParSy (LBC
		// per kernel), the normalization base.
		var lat [3]float64
		var gain [3]time.Duration
		for i, im := range []*combos.Impl{
			in.SparseFusion(threads),
			in.JointLBC(threads),
			in.UnfusedParSy(threads, lbc.Params{}),
		} {
			if err := im.Inspect(); err != nil {
				return nil, err
			}
			r, err := cachesim.Simulate(im.Steps(), cfg)
			if err != nil {
				return nil, err
			}
			lat[i] = r.AvgLatency()
			if gain[i], err = medianGain(im); err != nil {
				return nil, err
			}
		}
		base, gBase := lat[2], gain[2]
		norm := func(v float64) float64 {
			if base == 0 {
				return 0
			}
			return v / base
		}
		gnorm := func(v time.Duration) float64 {
			if gBase <= 0 {
				return 0
			}
			return float64(v) / float64(gBase)
		}
		rows = append(rows, Fig6Row{
			Combo:        in.Name,
			LatFusion:    norm(lat[0]),
			LatFusedLBC:  norm(lat[1]),
			LatParSy:     1,
			GainFusion:   gnorm(gain[0]),
			GainFusedLBC: gnorm(gain[1]),
			GainParSy:    1,
			RawLatParSy:  base,
			RawGainParSy: gBase,
		})
	}
	return rows, nil
}

// medianGain reduces scheduler noise in the potential-gain measurement by
// taking the median of five executions; the first executor error aborts.
func medianGain(im *combos.Impl) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		st, err := im.Execute()
		if err != nil {
			return 0, err
		}
		ds = append(ds, st.PotentialGain)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[2], nil
}

// ---------------------------------------------------------------- figure 7

// Fig7Row is one (matrix, combination, implementation) point of figure 7:
// the number of executor runs needed to amortize the inspector.
type Fig7Row struct {
	Matrix string
	Combo  string
	Impl   string
	NER    float64 // clipped to [-10, 30] as in the paper
}

// RunFig7 computes NER for TRSV-MV and ILU0-TRSV (the combinations the paper
// shows) across the suite.
func RunFig7(entries []suite.Entry, threads int) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, e := range entries {
		a := e.Gen()
		for _, id := range []combos.ID{combos.TrsvMv, combos.Ilu0Trsv} {
			in, err := combos.Build(id, a)
			if err != nil {
				return nil, err
			}
			baseline, err := in.RunSequential()
			if err != nil {
				return nil, err
			}
			impls := []*combos.Impl{
				in.SparseFusion(threads),
				in.UnfusedParSy(threads, lbc.Params{}),
				in.UnfusedMKL(threads),
				in.JointWavefront(threads),
				in.JointLBC(threads),
				in.JointDAGP(threads),
			}
			for _, im := range impls {
				if err := im.Inspect(); err != nil {
					return nil, err
				}
				st, err := im.Execute()
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig7Row{
					Matrix: e.Name, Combo: in.Name, Impl: im.Name,
					NER: clip(ner(im.InspectTime, baseline, st.Elapsed), -10, 30),
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- figure 8

// Fig8Row is one matrix of figure 8: DAG-partitioner inspection time for
// LBC and DAGP on the SpTRSV DAG alone and on the SpTRSV+SpMV joint DAG.
// A negative time means the configuration was infeasible (the paper's DAGP
// out-of-memory points).
type Fig8Row struct {
	Matrix    string
	Edges     int // edges of the SpTRSV DAG (the paper's x axis)
	LBCOne    float64
	LBCJoint  float64
	DAGPOne   float64
	DAGPJoint float64
}

// RunFig8 times the partitioners.
func RunFig8(entries []suite.Entry, threads int) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, e := range entries {
		a := e.Gen()
		in, err := combos.Build(combos.TrsvMv, a)
		if err != nil {
			return nil, err
		}
		one := in.Loops.G[0]
		joint, err := in.JointGraph()
		if err != nil {
			return nil, err
		}
		timeIt := func(f func() error) float64 {
			best := -1.0
			for rep := 0; rep < 2; rep++ {
				t0 := time.Now()
				if err := f(); err != nil {
					return -1
				}
				if d := time.Since(t0).Seconds(); best < 0 || d < best {
					best = d
				}
			}
			return best
		}
		row := Fig8Row{Matrix: e.Name, Edges: one.NumEdges()}
		row.LBCOne = timeIt(func() error {
			_, err := lbc.Schedule(one, threads, lbc.Params{})
			return err
		})
		row.LBCJoint = timeIt(func() error {
			_, err := lbc.ScheduleChordal(joint, threads, lbc.Params{})
			return err
		})
		row.DAGPOne = timeIt(func() error {
			_, err := dagp.Schedule(one, threads, dagp.Params{})
			return err
		})
		row.DAGPJoint = timeIt(func() error {
			_, err := dagp.Schedule(joint, threads, dagp.Params{})
			return err
		})
		progress("fig8 %s done", e.Name)
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- figure 9

// Fig9Row is one matrix of figure 9: end-to-end Gauss-Seidel solve time for
// unfused ParSy, sparse fusion (best of 1-3 sweeps per fused chain, i.e.
// 2-6 fused loops, chosen exhaustively as in the paper) and the best
// joint-DAG implementation.
type Fig9Row struct {
	Matrix     string
	NNZ        int
	ParSy      float64 // seconds
	Fusion     float64
	JointDAG   float64
	FusedLoops int // loops in the winning sparse-fusion configuration
	Sweeps     int // sweeps sparse fusion needed to converge
}

// RunFig9 solves each system to tol or maxSweeps.
func RunFig9(entries []suite.Entry, threads int, tol float64, maxSweeps int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, e := range entries {
		a := e.Gen()
		row := Fig9Row{Matrix: e.Name, NNZ: a.NNZ()}

		// Sparse fusion: exhaustive over 1..3 sweeps per fused chain.
		best := -1.0
		for sw := 1; sw <= 3; sw++ {
			t, sweeps, err := runGS(a, threads, tol, maxSweeps, sw, "fusion")
			if err != nil {
				return nil, err
			}
			if best < 0 || t < best {
				best, row.FusedLoops, row.Sweeps = t, 2*sw, sweeps
			}
		}
		row.Fusion = best

		t, _, err := runGS(a, threads, tol, maxSweeps, 1, "parsy")
		if err != nil {
			return nil, err
		}
		row.ParSy = t

		// Joint DAG: best of the three fused baselines on one-sweep chains.
		bestJ := -1.0
		for _, variant := range []string{"joint-wavefront", "joint-lbc", "joint-dagp"} {
			t, _, err := runGS(a, threads, tol, maxSweeps, 1, variant)
			if err != nil {
				return nil, err
			}
			if bestJ < 0 || t < bestJ {
				bestJ = t
			}
		}
		row.JointDAG = bestJ
		progress("fig9 %s done", e.Name)
		rows = append(rows, row)
	}
	return rows, nil
}

// runGS iterates fused GS sweep chains until the residual drops below tol,
// returning elapsed executor seconds and the sweep count.
func runGS(a *sparse.CSR, threads int, tol float64, maxSweeps, sweepsPerChain int, variant string) (float64, int, error) {
	in, err := combos.BuildGS(a, sweepsPerChain)
	if err != nil {
		return 0, 0, err
	}
	var im *combos.Impl
	switch variant {
	case "fusion":
		im = in.SparseFusion(threads)
	case "parsy":
		im = in.UnfusedParSy(threads, lbc.Params{})
	case "joint-wavefront":
		im = in.JointWavefront(threads)
	case "joint-lbc":
		im = in.JointLBC(threads)
	case "joint-dagp":
		im = in.JointDAGP(threads)
	default:
		return 0, 0, fmt.Errorf("figures: unknown GS variant %q", variant)
	}
	if err := im.Inspect(); err != nil {
		return 0, 0, err
	}
	b := in.Input
	normB := sparse.Norm2(b)
	ax := make([]float64, a.Rows)
	for i := range in.GSX0 {
		in.GSX0[i] = 0
	}
	total := time.Duration(0)
	sweeps := 0
	for sweeps < maxSweeps {
		st, err := im.Execute()
		if err != nil {
			return 0, 0, err
		}
		total += st.Elapsed
		sweeps += sweepsPerChain
		copy(in.GSX0, in.Output)
		for i := 0; i < a.Rows; i++ {
			s := 0.0
			for p := a.P[i]; p < a.P[i+1]; p++ {
				s += a.X[p] * in.GSX0[a.I[p]]
			}
			ax[i] = s
		}
		if sparse.Norm2(sparse.Sub(ax, b))/normB < tol {
			break
		}
	}
	return total.Seconds(), sweeps, nil
}

// --------------------------------------------------------------- figure 10

// Fig10Row is one matrix of figure 10: fused SpMV-SpMV versus the unfused
// MKL-style implementation, in GFLOP/s.
type Fig10Row struct {
	Matrix string
	NNZ    int
	MKL    float64
	Fusion float64
}

// RunFig10 measures the parallel-loop fusion extension.
func RunFig10(entries []suite.Entry, threads, reps int) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, e := range entries {
		a := e.Gen()
		in, err := combos.Build(combos.MvMv, a)
		if err != nil {
			return nil, err
		}
		flops := in.FlopCount()
		sf, err := bestOf(in.SparseFusion(threads), reps)
		if err != nil {
			return nil, err
		}
		mkl, err := bestOf(in.UnfusedMKL(threads), reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			Matrix: e.Name, NNZ: a.NNZ(),
			MKL:    telemetry.GFlops(flops, mkl),
			Fusion: telemetry.GFlops(flops, sf),
		})
	}
	return rows, nil
}

// ----------------------------------------------------------------- table 1

// Table1Row is one combination of Table 1 with its computed reuse ratio and
// the packing variant it selects.
type Table1Row struct {
	ID          int
	Combo       string
	DepClasses  string
	Reuse       float64
	Interleaved bool
}

var depClasses = map[combos.ID]string{
	combos.TrsvTrsv:  "CD - CD",
	combos.DscalIlu0: "Parallel - CD",
	combos.TrsvMv:    "CD - Parallel",
	combos.Ic0Trsv:   "CD - CD",
	combos.Ilu0Trsv:  "CD - CD",
	combos.DscalIc0:  "Parallel - CD",
}

// RunTable1 evaluates the reuse-ratio model on one matrix.
func RunTable1(a *sparse.CSR) ([]Table1Row, error) {
	var rows []Table1Row
	for _, id := range combos.All {
		in, err := combos.Build(id, a)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			ID:          int(id),
			Combo:       in.Name,
			DepClasses:  depClasses[id],
			Reuse:       in.Reuse,
			Interleaved: in.Reuse >= 1,
		})
	}
	return rows, nil
}

// ------------------------------------------------- reuse-distance extension

// ReuseDistRow is this reproduction's machine-independent companion to
// figure 6: mean LRU stack distance (in 64-byte lines) of the sparse-fusion
// implementation's steps (packed where the chain packs) versus unfused
// ParSy's, plus the hit ratio a 32 KiB L1 would see. Smaller distance /
// higher hit ratio = better locality.
type ReuseDistRow struct {
	Combo                  string
	MeanFused, MeanParSy   float64
	L1HitFused, L1HitParSy float64
}

// RunReuseDist profiles all six combinations on one matrix.
func RunReuseDist(a *sparse.CSR, threads int) ([]ReuseDistRow, error) {
	const l1Lines = 32 * 1024 / 64
	var rows []ReuseDistRow
	for _, id := range combos.All {
		in, err := combos.Build(id, a)
		if err != nil {
			return nil, err
		}
		var prof [2]locality.Profile
		for i, im := range []*combos.Impl{in.SparseFusion(threads), in.UnfusedParSy(threads, lbc.Params{})} {
			if err := im.Inspect(); err != nil {
				return nil, err
			}
			if prof[i], err = cachesim.Profile(im.Steps(), 64); err != nil {
				return nil, err
			}
		}
		rows = append(rows, ReuseDistRow{
			Combo:      in.Name,
			MeanFused:  prof[0].MeanDistance(),
			MeanParSy:  prof[1].MeanDistance(),
			L1HitFused: prof[0].HitRatio(l1Lines),
			L1HitParSy: prof[1].HitRatio(l1Lines),
		})
		progress("reusedist %s done", in.Name)
	}
	return rows, nil
}

// ner is the paper's "number of executor runs" to amortize inspection
// (figure 7): inspectorTime / (baselineTime - executorTime), where baseline
// is the sequential kernel-at-a-time execution. A negative NER means the
// executor never beats the baseline, so the inspector is never amortized.
func ner(inspector, baseline, executor time.Duration) float64 {
	den := baseline - executor
	if den == 0 {
		return math.Inf(1)
	}
	return float64(inspector) / float64(den)
}

// clip bounds v to [lo, hi], mirroring figure 7's clipped axis.
func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// minDuration returns the smallest positive duration, mirroring the paper's
// "best of" aggregation over baselines.
func minDuration(ds ...time.Duration) time.Duration {
	best := time.Duration(0)
	for _, d := range ds {
		if d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best
}
