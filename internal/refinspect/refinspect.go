// Package refinspect preserves the pre-optimization serial inspector as a
// frozen reference implementation. It is the seed revision's ICO pipeline —
// per-call map/slice allocations, reflection-based sorts, map-backed
// union-find grouping, no intra-inspector parallelism — kept verbatim except
// for one documented canonicalization (the LPT tie-break, see packLPT).
//
// It is the byte-identity oracle: core.ICO at any fan-out must serialize to
// exactly the bytes this package produces (asserted over the fuzz corpus in
// this package's tests). It stays until a change to the inspector's output
// replaces it with golden hashes.
//
// Nothing outside tests should import this package.
package refinspect

import (
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// The reference operates on the real inspector's types so schedules can be
// compared byte-for-byte through core's serializer.
type (
	Iter     = core.Iter
	Loops    = core.Loops
	Schedule = core.Schedule
	Params   = core.Params
)

// ICO is the seed revision's core.ICO, serial by definition.
func ICO(loops *Loops, p Params) (*Schedule, error) {
	if err := loops.Check(); err != nil {
		return nil, err
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	if len(loops.G) == 2 && loops.G[1].NumEdges() > 0 {
		return icoReversed(loops, p)
	}
	st, err := place(loops, p)
	if err != nil {
		return nil, err
	}
	st.runPhases()
	return st.pack(p.ReuseRatio)
}

func (st *state) runPhases() {
	if !st.p.DisableMerge {
		st.merge()
	}
	if !st.p.DisableSlack {
		st.slackBalance()
	}
}

func icoReversed(loops *Loops, p Params) (*Schedule, error) {
	rev := &Loops{
		G: []*dag.Graph{loops.G[1].Transpose(), loops.G[0].Transpose()},
		F: []*sparse.CSR{loops.F[0].Transpose()},
	}
	st, err := place(rev, p)
	if err != nil {
		return nil, err
	}
	st.runPhases()
	b := st.numS()
	orig := newState(loops, p)
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
	return orig.pack(p.ReuseRatio)
}

// forEachPred and forEachSucc mirror core's unexported Loops methods.
func forEachPred(l *Loops, tg []*dag.Graph, it Iter, fn func(Iter)) {
	for _, p := range tg[it.Loop].Succ(it.Idx) {
		fn(Iter{Loop: it.Loop, Idx: p})
	}
	if it.Loop > 0 {
		f := l.F[it.Loop-1]
		for p := f.P[it.Idx]; p < f.P[it.Idx+1]; p++ {
			fn(Iter{Loop: it.Loop - 1, Idx: f.I[p]})
		}
	}
}

func forEachSucc(l *Loops, fcsc []*sparse.CSC, it Iter, fn func(Iter)) {
	for _, s := range l.G[it.Loop].Succ(it.Idx) {
		fn(Iter{Loop: it.Loop, Idx: s})
	}
	if it.Loop < len(l.G)-1 {
		f := fcsc[it.Loop]
		for p := f.P[it.Idx]; p < f.P[it.Idx+1]; p++ {
			fn(Iter{Loop: it.Loop + 1, Idx: f.I[p]})
		}
	}
}

// topoOrder and levels are the seed's per-call allocating dag.Graph methods.
func topoOrder(g *dag.Graph) ([]int, error) {
	deg := g.InDegrees()
	order := make([]int, 0, g.N)
	queue := make([]int, 0, g.N)
	for v := 0; v < g.N; v++ {
		if deg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range g.Succ(v) {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != g.N {
		return nil, fmt.Errorf("refinspect: graph has a cycle (%d of %d vertices ordered)", len(order), g.N)
	}
	return order, nil
}

func levels(g *dag.Graph) ([]int, error) {
	order, err := topoOrder(g)
	if err != nil {
		return nil, err
	}
	lvl := make([]int, g.N)
	for _, v := range order {
		for _, s := range g.Succ(v) {
			if lvl[v]+1 > lvl[s] {
				lvl[s] = lvl[v] + 1
			}
		}
	}
	return lvl, nil
}

// state is the seed's mutable placement (core.state before optimization).
type state struct {
	loops *Loops
	p     Params
	tg    []*dag.Graph
	fcsc  []*sparse.CSC

	posS, posW [][]int
	cost       [][]int

	stickS, stickW, stickLeft int
}

const stickyGranule = 32

func (st *state) assignFree(it Iter, s int) {
	if st.stickS != s || st.stickLeft <= 0 {
		st.stickS, st.stickW, st.stickLeft = s, st.lightestW(s), stickyGranule
	}
	st.assign(it, s, st.stickW)
	st.stickLeft--
}

func newState(loops *Loops, p Params) *state {
	st := &state{loops: loops, p: p}
	st.tg = make([]*dag.Graph, len(loops.G))
	for k, g := range loops.G {
		st.tg[k] = g.Transpose()
	}
	st.fcsc = make([]*sparse.CSC, len(loops.F))
	for k, f := range loops.F {
		st.fcsc[k] = f.ToCSC()
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

func (st *state) ensureS(s int) {
	for len(st.cost) <= s {
		st.cost = append(st.cost, make([]int, 0, st.p.Threads))
	}
}

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

func (st *state) assign(it Iter, s, w int) {
	st.ensureS(s)
	for len(st.cost[s]) <= w {
		st.cost[s] = append(st.cost[s], 0)
	}
	st.posS[it.Loop][it.Idx] = s
	st.posW[it.Loop][it.Idx] = w
	st.cost[s][w] += st.loops.G[it.Loop].Weight(it.Idx)
}

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

// place is the seed's ICO step (i): serial LBC on the head, then serial
// partition pairing per tail loop in topological order.
func place(loops *Loops, p Params) (*state, error) {
	st := newState(loops, p)
	head, err := lbcSchedule(loops.G[0], p.Threads, p.LBC)
	if err != nil {
		return nil, err
	}
	for s, sp := range head.S {
		for w, part := range sp {
			for _, v := range part {
				st.assign(Iter{Loop: 0, Idx: v}, s, w)
			}
		}
	}
	for k := 1; k < len(loops.G); k++ {
		order, err := topoOrder(loops.G[k])
		if err != nil {
			return nil, err
		}
		for _, i := range order {
			it := Iter{Loop: k, Idx: i}
			maxS := -1
			wAtMax := -1
			multi := false
			forEachPred(st.loops, st.tg, it, func(pr Iter) {
				ps := st.posS[pr.Loop][pr.Idx]
				if ps < 0 {
					panic(fmt.Sprintf("refinspect: predecessor %+v of %+v unplaced", pr, it))
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
				st.assignFree(it, 0)
			case !multi:
				st.assign(it, maxS, wAtMax)
			default:
				st.assignFree(it, maxS+1)
			}
		}
	}
	return st, nil
}
