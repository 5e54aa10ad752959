package dag

import (
	"fmt"
	"slices"
)

// Scratch is the inspector's reusable work area for DAG traversals: flat
// int32 buffers for the queue, degrees and heights, plus an epoch-stamped
// visited set, each sized to the largest graph it has served and reused
// across calls. A buffer is allocated only by the first traversal that needs
// it: a topological order or a level pass allocates two, heights a third.
//
// A Scratch is not safe for concurrent use; parallel inspector stages hold
// one per worker. Slices returned by Scratch methods alias its buffers and
// are valid only until the next call on the same Scratch.
type Scratch struct {
	stamp []int32 // visited epoch per vertex (Reach)
	epoch int32

	// queue is the BFS / Kahn FIFO. Kahn's algorithm pops vertices in the
	// order it pushed them, so once a pass is done the queue is the
	// topological order.
	queue []int32
	// deg holds in-degrees during a Kahn pass. A complete pass leaves every
	// entry zero, so the level sweep that follows writes the levels here.
	deg []int32
	h   []int32 // heights
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// sized returns b resliced to n entries, reallocated when it holds fewer.
// Contents are not preserved.
func sized(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// visitEpoch starts a new visited-set generation over n vertices: O(1)
// except on the (practically unreachable) epoch wraparound. A grown stamp
// buffer keeps its old entries: the epoch protocol needs stale stamps to
// stay below the current epoch, and fresh zero entries always are (epochs
// start at 1).
func (sc *Scratch) visitEpoch(n int) {
	if cap(sc.stamp) < n {
		stamp := make([]int32, n)
		copy(stamp, sc.stamp)
		sc.stamp = stamp
	}
	sc.stamp = sc.stamp[:n]
	sc.queue = sized(sc.queue, n)
	sc.epoch++
	if sc.epoch <= 0 { // wrapped: hard reset
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
}

// Reach appends the set of vertices reachable from the seeds (inclusive) to
// dst and returns it, sorted ascending — a CSR breadth-first search over an
// epoch-stamped visited array instead of the former map-based BFS. dst may
// be nil; pass a reused buffer to avoid the output allocation too.
func (sc *Scratch) Reach(g *Graph, seeds []int, dst []int32) []int32 {
	sc.visitEpoch(g.N)
	head, tail := 0, 0
	for _, s := range seeds {
		if sc.stamp[s] != sc.epoch {
			sc.stamp[s] = sc.epoch
			sc.queue[tail] = int32(s)
			tail++
		}
	}
	for head < tail {
		v := sc.queue[head]
		head++
		for _, s := range g.Succ(int(v)) {
			if sc.stamp[s] != sc.epoch {
				sc.stamp[s] = sc.epoch
				sc.queue[tail] = int32(s)
				tail++
			}
		}
	}
	dst = append(dst[:0], sc.queue[:tail]...)
	slices.Sort(dst)
	return dst
}

// TopoOrder returns a topological ordering in the scratch queue buffer, or
// an error when the graph has a cycle. Kahn's algorithm with a FIFO queue,
// so independent vertices appear in index order — identical to
// Graph.TopoOrder.
func (sc *Scratch) TopoOrder(g *Graph) ([]int32, error) {
	sc.queue = sized(sc.queue, g.N)
	sc.deg = sized(sc.deg, g.N)
	deg := sc.deg
	for i := range deg {
		deg[i] = 0
	}
	for _, dst := range g.I {
		deg[dst]++
	}
	queue := sc.queue
	tail := 0
	for v := 0; v < g.N; v++ {
		if deg[v] == 0 {
			queue[tail] = int32(v)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		for _, s := range g.Succ(int(queue[head])) {
			deg[s]--
			if deg[s] == 0 {
				queue[tail] = int32(s)
				tail++
			}
		}
	}
	if tail != g.N {
		return nil, fmt.Errorf("dag: graph has a cycle (%d of %d vertices ordered)", tail, g.N)
	}
	return queue, nil
}

// Levels returns the wavefront number l(v) of every vertex in the scratch
// degree buffer. Identical values to Graph.Levels.
func (sc *Scratch) Levels(g *Graph) ([]int32, error) {
	_, lvl, err := sc.TopoLevels(g)
	return lvl, err
}

// TopoLevels is TopoOrder and Levels from one Kahn pass: the order in the
// queue buffer, the levels in the degree buffer.
func (sc *Scratch) TopoLevels(g *Graph) (order, lvl []int32, err error) {
	order, err = sc.TopoOrder(g)
	if err != nil {
		return nil, nil, err
	}
	lvl = sc.deg // all zero after a complete Kahn pass
	for _, v := range order {
		lv := lvl[v] + 1
		for _, s := range g.Succ(int(v)) {
			if lv > lvl[s] {
				lvl[s] = lv
			}
		}
	}
	return order, lvl, nil
}

// Heights returns height(v) — the longest path (in edges) from v to any
// sink — in the scratch height buffer. Identical values to Graph.Heights.
func (sc *Scratch) Heights(g *Graph) ([]int32, error) {
	order, err := sc.TopoOrder(g)
	if err != nil {
		return nil, err
	}
	return sc.HeightsAlong(g, order), nil
}

// HeightsAlong is Heights over a topological order of g the caller already
// holds (order may be this scratch's own queue buffer). The height of a
// vertex in g is its level in g's transpose, so a caller holding the
// transpose's order gets the transpose's levels without a Kahn pass of its
// own.
func (sc *Scratch) HeightsAlong(g *Graph, order []int32) []int32 {
	sc.h = sized(sc.h, g.N)
	h := sc.h
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var hv int32
		for _, s := range g.Succ(int(v)) {
			if h[s]+1 > hv {
				hv = h[s] + 1
			}
		}
		h[v] = hv
	}
	return h
}

// SlackNumbers returns SN(v) = PG - l(v) - height(v) for every vertex from
// one Kahn pass; the result is written into (and aliases) the level buffer.
// Identical values to Graph.SlackNumbers.
func (sc *Scratch) SlackNumbers(g *Graph) ([]int32, error) {
	order, lvl, err := sc.TopoLevels(g)
	if err != nil {
		return nil, err
	}
	h := sc.HeightsAlong(g, order)
	var pg int32
	for i := 0; i < g.N; i++ {
		if lvl[i] > pg {
			pg = lvl[i]
		}
	}
	for i := 0; i < g.N; i++ {
		lvl[i] = pg - lvl[i] - h[i]
	}
	return lvl, nil
}
