package core

import (
	"fmt"
	"time"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/par"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/sparse"
)

// Params configures the ICO algorithm (paper Algorithm 1).
type Params struct {
	// Threads is r, the requested number of w-partitions per s-partition. It
	// is also the inspector's own parallelism: DAG transposes, the head LBC
	// partitioning and per-unit packing fan out over min(Threads, GOMAXPROCS)
	// goroutines. The schedule is byte-identical at any fan-out — parallel
	// stages write to indexed slots only — which the tests assert at
	// GOMAXPROCS 1 to 8 against the seed serial inspector's pinned output.
	Threads int
	// ReuseRatio selects the packing strategy: interleaved when >= 1,
	// separated when < 1 (paper section 3.2.3).
	ReuseRatio float64
	// LBC tunes the head-DAG partitioner (paper section 4.1 defaults).
	LBC lbc.Params
	// DisableMerge skips ICO step (ii)'s merging phase — an ablation knob
	// for measuring how much the barrier reduction contributes.
	DisableMerge bool
	// DisableSlack skips slack vertex assignment — an ablation knob for
	// measuring how much slack-based balancing contributes.
	DisableSlack bool
}

// InspectorTimings breaks an ICO run into its pipeline phases, the numbers
// bench/ reports as core.*_ms and lbc.head_ms. Durations are wall-clock, so
// parallel phases report their span, not their CPU time.
type InspectorTimings struct {
	Setup   time.Duration // transposes, CSC conversions, state allocation
	Head    time.Duration // LBC on the head DAG (+ overlapped topo orders)
	Pairing time.Duration // partition pairing of the tail loops
	Merge   time.Duration // ICO step (ii) merging
	Slack   time.Duration // ICO step (ii) slack assignment
	Pack    time.Duration // ICO step (iii) per-unit ordering
}

// Total sums the phases.
func (t InspectorTimings) Total() time.Duration {
	return t.Setup + t.Head + t.Pairing + t.Merge + t.Slack + t.Pack
}

// ICO runs Iteration Composition and Ordering on the fused loops and returns
// the fused partitioning (paper section 3). For two loops it applies the
// paper's head-selection rule (Algorithm 1 line 1): the second DAG becomes
// the head when it has edges, otherwise the first. For more than two loops
// the DAGs are processed in program order, each pairing against the fused
// schedule built so far (paper section 3.3).
func ICO(loops *Loops, p Params) (*Schedule, error) {
	s, _, err := icoRun(loops, p)
	return s, err
}

// ICOTimed is ICO with per-phase timings for the benchmark harness.
func ICOTimed(loops *Loops, p Params) (*Schedule, InspectorTimings, error) {
	return icoRun(loops, p)
}

func icoRun(loops *Loops, p Params) (*Schedule, InspectorTimings, error) {
	var tm InspectorTimings
	if err := loops.Check(); err != nil {
		return nil, tm, err
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	if len(loops.G) == 2 && loops.G[1].NumEdges() > 0 {
		return icoReversed(loops, p)
	}
	st, err := place(loops, p, &tm, nil, nil)
	if err != nil {
		return nil, tm, err
	}
	st.runPhases(&tm)
	t0 := time.Now()
	sched, err := st.pack(p.ReuseRatio)
	tm.Pack = time.Since(t0)
	return sched, tm, err
}

// runPhases applies ICO step (ii) honoring the ablation knobs.
func (st *state) runPhases(tm *InspectorTimings) {
	t0 := time.Now()
	if !st.p.DisableMerge {
		st.merge()
	}
	tm.Merge = time.Since(t0)
	t0 = time.Now()
	if !st.p.DisableSlack {
		st.slackBalance()
	}
	tm.Slack = time.Since(t0)
}

// icoReversed handles head = G2 (Algorithm 1 line 1): it mirrors the problem
// (transpose both DAGs, flip F), runs the forward pipeline with the original
// second loop as the head, then mirrors the s-partition order back. Within-
// partition ordering is produced by packing on the original orientation, so
// only s/w placement needs mirroring.
//
// The mirror is three conversions, and both states reuse them: a DAG's
// transpose is the other orientation's predecessor lists, and F's CSR arrays
// read as a CSC are the successor lists of F's transpose (and vice versa).
func icoReversed(loops *Loops, p Params) (*Schedule, InspectorTimings, error) {
	var tm InspectorTimings
	t0 := time.Now()
	rev := &Loops{
		G: make([]*dag.Graph, 2),
		F: make([]*sparse.CSR, 1),
	}
	par.Do(p.Threads,
		func() { rev.G[0] = loops.G[1].Transpose() },
		func() { rev.G[1] = loops.G[0].Transpose() },
		func() { rev.F[0] = loops.F[0].Transpose() },
	)
	tm.Setup = time.Since(t0)
	st, err := place(rev, p, &tm, []*dag.Graph{loops.G[1], loops.G[0]}, []*sparse.CSC{csrAsCSC(loops.F[0])})
	if err != nil {
		return nil, tm, err
	}
	st.runPhases(&tm)
	// Mirror back: loop 0' is the original loop 1 and vice versa; s-partition
	// order reverses.
	t0 = time.Now()
	b := st.numS()
	orig := newState(loops, p, []*dag.Graph{rev.G[1], rev.G[0]}, []*sparse.CSC{csrAsCSC(rev.F[0])})
	orig.ensureS(b - 1)
	for i := 0; i < loops.G[1].N; i++ {
		orig.posS[1][i] = b - 1 - st.posS[0][i]
		orig.posW[1][i] = st.posW[0][i]
	}
	for i := 0; i < loops.G[0].N; i++ {
		orig.posS[0][i] = b - 1 - st.posS[1][i]
		orig.posW[0][i] = st.posW[1][i]
	}
	orig.recomputeCosts()
	sched, err := orig.pack(p.ReuseRatio)
	tm.Pack += time.Since(t0)
	return sched, tm, err
}

// state carries the mutable fused placement: for every iteration, its
// s-partition and w-partition index.
type state struct {
	loops *Loops
	p     Params
	tg    []*dag.Graph  // transposed DAGs (predecessor lists)
	fcsc  []*sparse.CSC // F matrices in CSC form (successor lists)

	posS, posW [][]int // [loop][iter] -> s / w
	cost       [][]int // [s][w] accumulated weight

	// sticky slot: consecutive free-choice placements into one s-partition
	// stay in one w-partition for a granule of iterations, preserving the
	// contiguous index ranges spatial locality needs (scattering rows
	// one-by-one across slots defeats the separated packing's purpose).
	stickS, stickW, stickLeft int
}

// stickyGranule is how many consecutive free-choice placements share a slot
// before the lightest slot is re-evaluated; it trades balance granularity
// for contiguity.
const stickyGranule = 32

// assignFree places an iteration whose slot choice is unconstrained,
// batching consecutive placements into the same w-partition.
func (st *state) assignFree(it Iter, s int) {
	if st.stickS != s || st.stickLeft <= 0 {
		st.stickS, st.stickW, st.stickLeft = s, st.lightestW(s), stickyGranule
	}
	st.assign(it, s, st.stickW)
	st.stickLeft--
}

// csrAsCSC reads a CSR's arrays as the CSC of its transpose, sharing them.
func csrAsCSC(a *sparse.CSR) *sparse.CSC {
	return &sparse.CSC{Rows: a.Cols, Cols: a.Rows, P: a.P, I: a.I, X: a.X}
}

// newState allocates the placement over loops. tg and fcsc are the transposed
// DAGs and F's CSC forms when the caller already holds them; nil derives them.
func newState(loops *Loops, p Params, tg []*dag.Graph, fcsc []*sparse.CSC) *state {
	st := &state{loops: loops, p: p, tg: tg, fcsc: fcsc}
	if tg == nil {
		st.tg = make([]*dag.Graph, len(loops.G))
		st.fcsc = make([]*sparse.CSC, len(loops.F))
		// Transposes and CSC conversions are independent per loop: fan them
		// out across the inspector workers (each writes only its own slot).
		par.ForEach(p.Threads, len(loops.G)+len(loops.F), func(i int) {
			if i < len(loops.G) {
				st.tg[i] = loops.G[i].Transpose()
			} else {
				st.fcsc[i-len(loops.G)] = loops.F[i-len(loops.G)].ToCSC()
			}
		})
	}
	st.posS = make([][]int, len(loops.G))
	st.posW = make([][]int, len(loops.G))
	for k, g := range loops.G {
		st.posS[k] = make([]int, g.N)
		st.posW[k] = make([]int, g.N)
		for i := range st.posS[k] {
			st.posS[k][i] = -1
		}
	}
	return st
}

func (st *state) numS() int { return len(st.cost) }

// ensureS grows the cost table so s-partition s exists.
func (st *state) ensureS(s int) {
	for len(st.cost) <= s {
		st.cost = append(st.cost, make([]int, 0, st.p.Threads))
	}
}

// lightestW returns the w slot with minimum cost in s-partition s, opening a
// new slot while fewer than r exist (an empty slot costs 0 and always wins).
func (st *state) lightestW(s int) int {
	st.ensureS(s)
	slots := st.cost[s]
	if len(slots) < st.p.Threads {
		if len(slots) == 0 || minInt(slots) > 0 {
			st.cost[s] = append(slots, 0)
			return len(st.cost[s]) - 1
		}
	}
	best := 0
	for w := 1; w < len(slots); w++ {
		if slots[w] < slots[best] {
			best = w
		}
	}
	return best
}

func minInt(s []int) int {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// assign places iteration it into (s, w).
func (st *state) assign(it Iter, s, w int) {
	st.ensureS(s)
	for len(st.cost[s]) <= w {
		st.cost[s] = append(st.cost[s], 0)
	}
	st.posS[it.Loop][it.Idx] = s
	st.posW[it.Loop][it.Idx] = w
	st.cost[s][w] += st.loops.G[it.Loop].Weight(it.Idx)
}

// recomputeCosts rebuilds the cost table from the position arrays.
func (st *state) recomputeCosts() {
	for s := range st.cost {
		for w := range st.cost[s] {
			st.cost[s][w] = 0
		}
	}
	for k, g := range st.loops.G {
		for i := 0; i < g.N; i++ {
			s, w := st.posS[k][i], st.posW[k][i]
			st.ensureS(s)
			for len(st.cost[s]) <= w {
				st.cost[s] = append(st.cost[s], 0)
			}
			st.cost[s][w] += g.Weight(i)
		}
	}
}

// place runs ICO step (i): vertex partitioning of the head DAG (loop 0) with
// LBC, then partition pairing of each subsequent loop in topological order
// (paper section 3.2.1). A tail iteration whose latest predecessors sit in a
// single w-partition joins that pair partition (self-contained); one whose
// predecessors span w-partitions is deferred to the following s-partition
// (the paper's uncontained vertices, which "create synchronization").
//
// State setup, the head LBC run, and the tail loops' topo orders (which
// pairing consumes but which only depend on the input DAGs) execute
// concurrently; the pairing scan itself is order-dependent and stays
// sequential. tg and fcsc go to newState.
func place(loops *Loops, p Params, tm *InspectorTimings, tg []*dag.Graph, fcsc []*sparse.CSC) (*state, error) {
	t0 := time.Now()
	var st *state
	var head *partition.Partitioning
	var headErr error
	orders := make([][]int32, len(loops.G))
	orderErrs := make([]error, len(loops.G))
	par.Do(p.Threads,
		func() { st = newState(loops, p, tg, fcsc) },
		func() { head, headErr = lbc.Schedule(loops.G[0], p.Threads, p.LBC) },
		func() {
			par.ForEach(p.Threads, len(loops.G)-1, func(i int) {
				k := i + 1
				sc := dag.NewScratch()
				order, err := sc.TopoOrder(loops.G[k])
				if err != nil {
					orderErrs[k] = err
					return
				}
				orders[k] = append([]int32(nil), order...)
			})
		},
	)
	if headErr != nil {
		return nil, headErr
	}
	for _, err := range orderErrs {
		if err != nil {
			return nil, err
		}
	}
	tm.Setup += time.Since(t0)
	t0 = time.Now()
	for s, sp := range head.S {
		for w, part := range sp {
			for _, v := range part {
				st.assign(Iter{0, v}, s, w)
			}
		}
	}
	tm.Head = time.Since(t0)
	t0 = time.Now()
	for k := 1; k < len(loops.G); k++ {
		for _, i32 := range orders[k] {
			i := int(i32)
			it := Iter{k, i}
			maxS := -1
			wAtMax := -1
			multi := false
			st.loops.forEachPred(st.tg, it, func(pr Iter) {
				ps := st.posS[pr.Loop][pr.Idx]
				if ps < 0 {
					// Unreachable for valid inputs: intra preds come earlier
					// in topo order, cross preds belong to placed loops.
					panic(fmt.Sprintf("core: predecessor %+v of %+v unplaced", pr, it))
				}
				switch {
				case ps > maxS:
					maxS, wAtMax, multi = ps, st.posW[pr.Loop][pr.Idx], false
				case ps == maxS && st.posW[pr.Loop][pr.Idx] != wAtMax:
					multi = true
				}
			})
			switch {
			case maxS < 0:
				// No dependencies: free iteration, fill the first
				// s-partition; slack assignment may move it later.
				st.assignFree(it, 0)
			case !multi:
				// Self-contained pair: same s- and w-partition as its latest
				// predecessor.
				st.assign(it, maxS, wAtMax)
			default:
				// Uncontained: defer past the barrier.
				st.assignFree(it, maxS+1)
			}
		}
	}
	tm.Pairing = time.Since(t0)
	return st, nil
}
