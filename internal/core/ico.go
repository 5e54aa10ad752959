package core

import (
	"slices"
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
// bench/ reports as core.*_ms and lbc.head_ms. Durations are wall-clock and
// sum to the call's: a parallel stage reports its span, not its CPU time.
// The head LBC run overlaps the set-up work in one parallel stage; Head is
// that run's own duration and Setup the rest of the stage's span.
type InspectorTimings struct {
	Setup   time.Duration // transposes, CSC conversions, Kahn passes, state allocation
	Head    time.Duration // LBC on the head DAG
	Pairing time.Duration // head placement and partition pairing of the tail loops
	Merge   time.Duration // ICO step (ii) merging
	Slack   time.Duration // ICO step (ii) slack assignment
	Pack    time.Duration // mirroring a reversed placement, ICO step (iii) per-unit ordering
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

// icoRun is the pipeline's entry. It cuts the chain after every loop whose
// outgoing F is all-to-all (allToAll), runs icoSegment on each segment in
// program order, and concatenates the segments' s-partitions, offsetting
// their loop indices. F links only adjacent loops, so placing all of one
// segment before all of the next orders every dependence the chain has. An
// uncut chain is one segment, scheduled as it always was. The phases of tm
// sum over the segments.
func icoRun(loops *Loops, p Params) (*Schedule, InspectorTimings, error) {
	var tm InspectorTimings
	if err := loops.Check(); err != nil {
		return nil, tm, err
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	var sched *Schedule
	lo := 0
	for hi := 1; hi <= len(loops.G); hi++ {
		if hi < len(loops.G) && !allToAll(loops.F[hi-1], p.Threads) {
			continue
		}
		seg, err := icoSegment(&Loops{G: loops.G[lo:hi], F: loops.F[lo : hi-1]}, p, &tm)
		if err != nil {
			return nil, tm, err
		}
		if sched == nil {
			sched = seg
		} else {
			for _, sp := range seg.S {
				for _, w := range sp {
					for i := range w {
						w[i].Loop += lo
					}
				}
			}
			sched.S = append(sched.S, seg.S...)
		}
		lo = hi
	}
	return sched, tm, nil
}

// allToAll reports whether ICO cuts the chain at link f: every iteration of
// the consumer reads what every iteration of the producer wrote (a dense F,
// such as the one a reduction's consumers have on its partials), more than
// one of each, and more than one w-partition to spread them over. Pairing
// can keep no consumer next to a producer spread over more than one
// w-partition, so a barrier there is forced anyway; without the cut, one
// producer iteration deferred past that barrier pulls every consumer, and
// everything downstream of them, into its one w-partition.
func allToAll(f *sparse.CSR, threads int) bool {
	return threads > 1 && f.Rows > 1 && f.Cols > 1 && f.P[f.Rows] == f.Rows*f.Cols
}

// icoSegment is the pipeline over one segment of the chain. Head = G2
// (Algorithm 1 line 1) mirrors the problem — both DAGs transposed, F
// flipped — so the forward pipeline runs with the original second loop as
// the head; the placement is mirrored back before packing, which orders
// every unit on the original orientation.
func icoSegment(loops *Loops, p Params, tm *InspectorTimings) (*Schedule, error) {
	reversed := len(loops.G) == 2 && loops.G[1].NumEdges() > 0
	st, err := place(loops, p, reversed, tm)
	if err != nil {
		return nil, err
	}
	st.runPhases(tm)
	t0 := time.Now()
	if reversed {
		st.mirror(loops)
	}
	sched := st.pack(p.ReuseRatio)
	tm.Pack += time.Since(t0)
	return sched, nil
}

// runPhases applies ICO step (ii) honoring the ablation knobs.
func (st *state) runPhases(tm *InspectorTimings) {
	t0 := time.Now()
	if !st.p.DisableMerge {
		st.merge()
	}
	tm.Merge += time.Since(t0)
	t0 = time.Now()
	if !st.p.DisableSlack {
		st.slackBalance()
	}
	tm.Slack += time.Since(t0)
}

// state carries the mutable fused placement: for every iteration, its
// s-partition and w-partition index. Every array it holds lives for one ICO
// call.
type state struct {
	loops *Loops
	p     Params
	deps  []deps // per loop: its dependence lists as plain CSR slices
	// lvl holds the wavefront numbers of the input loops' DAGs, in the
	// input's orientation, for packing.
	lvl [][]int32

	posS, posW [][]int32 // [loop][iter] -> s / w
	cost       [][]int   // [s][w] accumulated weight
	units      units     // the placement grouped by (s, w), as of the last group call

	// sticky slot: consecutive free-choice placements into one s-partition
	// stay in one w-partition for a granule of iterations, preserving the
	// contiguous index ranges spatial locality needs (scattering rows
	// one-by-one across slots defeats the separated packing's purpose).
	stickS, stickW, stickLeft int
}

// deps is one loop's dependences as CSR slices, hoisted so the walks over
// them are plain loops: its intra-DAG predecessors and successors, the
// previous loop's iterations its F row lists (empty for loop 0), and the
// next loop's iterations depending on it (empty for the last loop).
type deps struct {
	predP, predI   []int
	succP, succI   []int
	crossP, crossI []int // F[k-1] row: predecessors in loop k-1
	nextP, nextI   []int // F[k] column: successors in loop k+1
}

func (d *deps) preds(i int) []int { return d.predI[d.predP[i]:d.predP[i+1]] }
func (d *deps) succs(i int) []int { return d.succI[d.succP[i]:d.succP[i+1]] }

// crossPreds lists the loop-(k-1) predecessors; nil for loop 0.
func (d *deps) crossPreds(i int) []int {
	if d.crossP == nil {
		return nil
	}
	return d.crossI[d.crossP[i]:d.crossP[i+1]]
}

// nextSuccs lists the loop-(k+1) successors; nil for the last loop.
func (d *deps) nextSuccs(i int) []int {
	if d.nextP == nil {
		return nil
	}
	return d.nextI[d.nextP[i]:d.nextP[i+1]]
}

// orient points the state at loops, whose DAGs' transposes are tg (the
// predecessor lists) and whose F matrices' CSC forms are fcsc (the
// successor lists), and hoists their CSR slices into deps.
func (st *state) orient(loops *Loops, tg []*dag.Graph, fcsc []*sparse.CSC) {
	st.loops = loops
	st.deps = make([]deps, len(loops.G))
	for k, g := range loops.G {
		d := &st.deps[k]
		d.predP, d.predI = tg[k].P, tg[k].I
		d.succP, d.succI = g.P, g.I
		if k > 0 {
			d.crossP, d.crossI = loops.F[k-1].P, loops.F[k-1].I
		}
		if k < len(fcsc) {
			d.nextP, d.nextI = fcsc[k].P, fcsc[k].I
		}
	}
}

// stickyGranule is how many consecutive free-choice placements share a slot
// before the lightest slot is re-evaluated; it trades balance granularity
// for contiguity.
const stickyGranule = 32

// assignFree places an iteration whose slot choice is unconstrained,
// batching consecutive placements into the same w-partition.
func (st *state) assignFree(k, i, s int) {
	if st.stickS != s || st.stickLeft <= 0 {
		st.stickS, st.stickW, st.stickLeft = s, st.lightestW(s), stickyGranule
	}
	st.assign(k, i, s, st.stickW)
	st.stickLeft--
}

// csrAsCSC reads a CSR's arrays as the CSC of its transpose, sharing them.
func csrAsCSC(a *sparse.CSR) *sparse.CSC {
	return &sparse.CSC{Rows: a.Cols, Cols: a.Rows, P: a.P, I: a.I, X: a.X}
}

// newState allocates a placement of loops of the given trip counts, every
// iteration unplaced; orient then points it at the loops.
func newState(p Params, sizes ...int) *state {
	st := &state{p: p, posS: int32Rows(sizes), posW: int32Rows(sizes)}
	for _, row := range st.posS {
		for i := range row {
			row[i] = -1
		}
	}
	return st
}

// int32Rows allocates one zeroed row per size, all carved out of one
// backing array.
func int32Rows(sizes []int) [][]int32 {
	total := 0
	for _, n := range sizes {
		total += n
	}
	back := make([]int32, total)
	rows := make([][]int32, len(sizes))
	for k, n := range sizes {
		rows[k], back = back[:n:n], back[n:]
	}
	return rows
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

// ensureW grows s-partition s's cost row so slot w exists.
func (st *state) ensureW(s, w int) {
	st.ensureS(s)
	for len(st.cost[s]) <= w {
		st.cost[s] = append(st.cost[s], 0)
	}
}

// assign places iteration i of loop k into (s, w).
func (st *state) assign(k, i, s, w int) {
	st.ensureW(s, w)
	st.posS[k][i] = int32(s)
	st.posW[k][i] = int32(w)
	st.cost[s][w] += st.loops.G[k].Weight(i)
}

// latestPreds tracks, over a walk of predecessors, the latest s-partition
// any of them sits in and whether those latest ones share one w-partition.
type latestPreds struct {
	s, w  int32
	multi bool
}

func (l *latestPreds) add(s, w int32) {
	switch {
	case s > l.s:
		l.s, l.w, l.multi = s, w, false
	case s == l.s && w != l.w:
		l.multi = true
	}
}

// headSchedule is the head-DAG partitioner place runs, a variable so tests
// can observe which phase its time is charged to.
var headSchedule = lbc.ScheduleLevels

// place runs ICO step (i): vertex partitioning of the head DAG (loop 0) with
// LBC, then partition pairing of each subsequent loop in topological order
// (paper section 3.2.1). A tail iteration whose latest predecessors sit in a
// single w-partition joins that pair partition (self-contained); one whose
// predecessors span w-partitions is deferred to the following s-partition
// (the paper's uncontained vertices, which "create synchronization").
// reversed places the mirrored problem of a two-loop chain whose second DAG
// is the head: loop 0 of the state is then the input's loop 1.
//
// One parallel stage derives everything the pipeline reads from the input,
// once per call: the working orientation's DAGs and F (transposed inputs
// when reversed), their transposes and F's CSC forms, one Kahn pass per
// DAG — the tail loops' topological orders for pairing, the head's levels
// for LBC, and the levels packing reads, which a reversed problem takes
// from its DAGs' heights — and the position tables. The head LBC run
// follows its DAG's Kahn pass in the same task; the pairing scan itself is
// order-dependent and stays sequential.
func place(in *Loops, p Params, reversed bool, tm *InspectorTimings) (*state, error) {
	t0 := time.Now()
	n := len(in.G)
	loops := in
	tg := make([]*dag.Graph, n)
	fcsc := make([]*sparse.CSC, n-1)
	if reversed {
		loops = &Loops{G: make([]*dag.Graph, 2), F: make([]*sparse.CSR, 1)}
		tg[0], tg[1] = in.G[1], in.G[0]
		fcsc[0] = csrAsCSC(in.F[0])
	}
	var st *state
	lvl := make([][]int32, n)
	orders := make([][]int32, n)
	errs := make([]error, n)
	var head *partition.Partitioning
	var headDur time.Duration
	// kahn runs working DAG k's Kahn pass and keeps what the pipeline reads
	// of it; the scratch and its buffers live for this call only.
	kahn := func(k int) {
		sc := dag.NewScratch()
		order, l, err := sc.TopoLevels(loops.G[k])
		if err != nil {
			errs[k] = err
			return
		}
		orders[k] = order
		if reversed {
			// Loop k here is input loop 1-k, transposed: its heights are the
			// input DAG's levels.
			lvl[1-k] = sc.HeightsAlong(loops.G[k], order)
		} else {
			lvl[k] = l
		}
		if k == 0 {
			t := time.Now()
			head = headSchedule(loops.G[0], tg[0], l, p.Threads, p.LBC)
			headDur = time.Since(t)
		}
	}
	var tasks []func()
	if reversed {
		tasks = []func(){
			func() { loops.G[0] = in.G[1].Transpose(); kahn(0) },
			func() { loops.G[1] = in.G[0].Transpose(); kahn(1) },
			func() { loops.F[0] = in.F[0].Transpose() },
		}
	} else {
		tasks = []func(){func() { tg[0] = in.G[0].Transpose(); kahn(0) }}
		for k := 1; k < n; k++ {
			tasks = append(tasks, func() { kahn(k) })
		}
		for k := 1; k < n; k++ {
			tasks = append(tasks, func() { tg[k] = in.G[k].Transpose() })
		}
		for k := 0; k < n-1; k++ {
			tasks = append(tasks, func() { fcsc[k] = in.F[k].ToCSC() })
		}
	}
	sizes := make([]int, n)
	for k, g := range in.G {
		sizes[k] = g.N
	}
	if reversed {
		sizes[0], sizes[1] = sizes[1], sizes[0]
	}
	tasks = append(tasks, func() { st = newState(p, sizes...) })
	par.Do(p.Threads, tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	st.orient(loops, tg, fcsc)
	st.lvl = lvl
	tm.Head += headDur
	tm.Setup += time.Since(t0) - headDur

	t0 = time.Now()
	for s, sp := range head.S {
		for w, part := range sp {
			for _, v := range part {
				st.assign(0, v, s, w)
			}
		}
	}
	for k := 1; k < n; k++ {
		d := &st.deps[k]
		ps, pw := st.posS[k], st.posW[k]
		qs, qw := st.posS[k-1], st.posW[k-1]
		for _, i32 := range orders[k] {
			i := int(i32)
			lp := latestPreds{s: -1, w: -1}
			for _, pr := range d.preds(i) {
				lp.add(ps[pr], pw[pr])
			}
			for _, pr := range d.crossPreds(i) {
				lp.add(qs[pr], qw[pr])
			}
			switch {
			case lp.s < 0:
				// No dependencies: free iteration, fill the first
				// s-partition; slack assignment may move it later.
				st.assignFree(k, i, 0)
			case !lp.multi:
				// Self-contained pair: same s- and w-partition as its latest
				// predecessor.
				st.assign(k, i, int(lp.s), int(lp.w))
			default:
				// Uncontained: defer past the barrier.
				st.assignFree(k, i, int(lp.s)+1)
			}
		}
	}
	tm.Pairing += time.Since(t0)
	return st, nil
}

// mirror maps a placement of the reversed problem back onto the input
// loops in place: the state's loop 0 is input loop 1 and vice versa, and the
// s-partition order reverses. Packing then orders every unit on the input's
// orientation.
func (st *state) mirror(in *Loops) {
	b := int32(st.numS())
	st.posS[0], st.posS[1] = st.posS[1], st.posS[0]
	st.posW[0], st.posW[1] = st.posW[1], st.posW[0]
	for _, row := range st.posS {
		for i, s := range row {
			row[i] = b - 1 - s
		}
	}
	slices.Reverse(st.cost)
	rev := st.loops
	st.orient(in, []*dag.Graph{rev.G[1], rev.G[0]}, []*sparse.CSC{csrAsCSC(rev.F[0])})
}
