package core

import (
	"fmt"
	"slices"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/par"
)

// pack implements ICO step (iii) (paper section 3.2.3): it fixes the
// execution order inside every w-partition. Separated packing runs each
// loop's iterations as one consecutive block (spatial locality within a
// kernel); interleaved packing runs consumer iterations as soon as their
// producers complete (temporal locality between kernels). Both orders
// respect every dependency among the partition's members; cross-partition
// dependencies were discharged by placement, merging and slack assignment.
//
// Units are mutually independent, so they are ordered in parallel across
// the inspector's workers (Params.Threads) — each unit writes its own (s, w)
// slot of the result, making the schedule identical for every worker count.
func (st *state) pack(reuse float64) (*Schedule, error) {
	members := st.members()
	sched := &Schedule{ReuseRatio: reuse, Interleaved: reuse >= 1}
	lvl := make([][]int32, len(st.loops.G))
	lvlErrs := make([]error, len(st.loops.G))
	par.ForEach(st.p.Threads, len(st.loops.G), func(k int) {
		l, err := dag.NewScratch().Levels(st.loops.G[k])
		if err != nil {
			lvlErrs[k] = err
			return
		}
		lvl[k] = append([]int32(nil), l...)
	})
	for _, err := range lvlErrs {
		if err != nil {
			return nil, err
		}
	}
	// Pre-shape the output (only non-empty units, in order), then fill the
	// slots in parallel by (s, w) index.
	type job struct {
		unit []Iter
		s, w int
	}
	var jobs []job
	for _, sp := range members {
		var units [][]Iter
		for _, unit := range sp {
			if len(unit) > 0 {
				units = append(units, unit)
			}
		}
		if len(units) == 0 {
			continue
		}
		s := len(sched.S)
		sched.S = append(sched.S, make([][]Iter, len(units)))
		for w, unit := range units {
			jobs = append(jobs, job{unit, s, w})
		}
	}
	if sched.Interleaved {
		scratch := make([]*packScratch, par.Workers(st.p.Threads, len(jobs)))
		par.ForEachWorker(st.p.Threads, len(jobs), func(worker, i int) {
			ps := scratch[worker]
			if ps == nil {
				ps = newPackScratch(st.loops)
				scratch[worker] = ps
			}
			j := jobs[i]
			sched.S[j.s][j.w] = st.interleavedPack(j.unit, lvl, ps)
		})
	} else {
		par.ForEach(st.p.Threads, len(jobs), func(i int) {
			j := jobs[i]
			sched.S[j.s][j.w] = separatedPack(j.unit, lvl)
		})
	}
	return sched, nil
}

// separatedPack orders a w-partition loop by loop, each loop's iterations by
// (wavefront level, index). Intra-loop dependencies are satisfied because a
// predecessor always has a smaller level; cross-loop dependencies only flow
// from loop k to loop k+1 and the loop-k block comes first.
func separatedPack(unit []Iter, lvl [][]int32) []Iter {
	out := append([]Iter(nil), unit...)
	slices.SortFunc(out, func(a, b Iter) int {
		if a.Loop != b.Loop {
			return a.Loop - b.Loop
		}
		if la, lb := lvl[a.Loop][a.Idx], lvl[b.Loop][b.Idx]; la != lb {
			return int(la - lb)
		}
		return a.Idx - b.Idx
	})
	return out
}

// packScratch is one worker's reusable state for interleavedPack: a flat
// epoch-stamped (loop, index) -> local-position table replacing the former
// per-unit map[Iter]int, plus growable adjacency and ready-list buffers.
type packScratch struct {
	pos   [][]int32 // per loop: local index of iteration i in the unit
	stamp [][]int32 // epoch stamps validating pos entries
	epoch int32

	indeg []int32
	succ  [][]int32 // per local index: successor local indices
	ready [][]int32 // per loop: ready local indices
}

func newPackScratch(loops *Loops) *packScratch {
	ps := &packScratch{
		pos:   make([][]int32, len(loops.G)),
		stamp: make([][]int32, len(loops.G)),
		ready: make([][]int32, len(loops.G)),
	}
	for k, g := range loops.G {
		ps.pos[k] = make([]int32, g.N)
		ps.stamp[k] = make([]int32, g.N)
	}
	return ps
}

// begin starts a new unit of size n: bumps the lookup epoch and resizes the
// per-member buffers, reusing their capacity.
func (ps *packScratch) begin(n int) {
	ps.epoch++
	if ps.epoch <= 0 { // wraparound: hard reset
		for k := range ps.stamp {
			for i := range ps.stamp[k] {
				ps.stamp[k][i] = 0
			}
		}
		ps.epoch = 1
	}
	if cap(ps.indeg) < n {
		ps.indeg = make([]int32, n)
		ps.succ = make([][]int32, n)
	}
	ps.indeg = ps.indeg[:n]
	ps.succ = ps.succ[:n]
	for i := 0; i < n; i++ {
		ps.indeg[i] = 0
		ps.succ[i] = ps.succ[i][:0]
	}
	for k := range ps.ready {
		ps.ready[k] = ps.ready[k][:0]
	}
}

// lookup returns the local index of it within the current unit, or -1.
func (ps *packScratch) lookup(it Iter) int32 {
	if ps.stamp[it.Loop][it.Idx] != ps.epoch {
		return -1
	}
	return ps.pos[it.Loop][it.Idx]
}

// interleavedPack emits a topological order of the partition's members that
// greedily prefers later-loop iterations: the moment a consumer's
// dependencies are complete it runs, placing it right after its producers
// (the paper's interleaved_pack driven by F).
func (st *state) interleavedPack(unit []Iter, lvl [][]int32, ps *packScratch) []Iter {
	ps.begin(len(unit))
	for li, it := range unit {
		ps.pos[it.Loop][it.Idx] = int32(li)
		ps.stamp[it.Loop][it.Idx] = ps.epoch
	}
	for li, it := range unit {
		st.loops.forEachPred(st.tg, it, func(pr Iter) {
			if pi := ps.lookup(pr); pi >= 0 {
				ps.indeg[li]++
				ps.succ[pi] = append(ps.succ[pi], int32(li))
			}
		})
	}
	// Ready lists per loop; producers drain in (level, index) order, and any
	// ready iteration of a later loop preempts them. Loop 0 — the producer
	// pool releases flow back into — is a min-heap instead of a re-sorted
	// slice: both pop the unique (level, index) minimum, so the emitted order
	// is identical, but a release costs O(log n) instead of a full sort.
	nLoops := len(st.loops.G)
	ready := ps.ready
	heap0 := ready[0][:0]
	for li, d := range ps.indeg {
		if d == 0 {
			if k := unit[li].Loop; k == 0 {
				heap0 = heapPush(heap0, int32(li), unit, lvl)
			} else {
				ready[k] = append(ready[k], int32(li))
			}
		}
	}
	for k := 1; k < nLoops; k++ {
		sortReady(ready[k], unit, lvl)
	}
	out := make([]Iter, 0, len(unit))
	for len(out) < len(unit) {
		picked := int32(-1)
		for k := nLoops - 1; k >= 1; k-- {
			if n := len(ready[k]); n > 0 {
				picked = ready[k][n-1]
				ready[k] = ready[k][:n-1]
				break
			}
		}
		if picked < 0 {
			if len(heap0) == 0 {
				// Cannot happen for an acyclic dependence structure.
				panic(fmt.Sprintf("core: interleaved packing wedged with %d of %d placed", len(out), len(unit)))
			}
			heap0, picked = heapPop(heap0, unit, lvl)
		}
		out = append(out, unit[picked])
		for _, si := range ps.succ[picked] {
			ps.indeg[si]--
			if ps.indeg[si] == 0 {
				// Loop-0 releases go through the heap; consumers (later
				// loops) run LIFO, which places them immediately after the
				// producer that released them.
				if k := unit[si].Loop; k == 0 {
					heap0 = heapPush(heap0, si, unit, lvl)
				} else {
					ready[k] = append(ready[k], si)
				}
			}
		}
	}
	ps.ready[0] = heap0 // retain the grown capacity for the next unit
	return out
}

// sortReady orders a ready list so the slice tail (the next pick) is the
// iteration with the smallest (level, index).
func sortReady(r []int32, unit []Iter, lvl [][]int32) {
	slices.SortFunc(r, func(x, y int32) int {
		a, b := unit[x], unit[y]
		la, lb := lvl[a.Loop][a.Idx], lvl[b.Loop][b.Idx]
		if la != lb {
			return int(lb - la)
		}
		return b.Idx - a.Idx
	})
}

// heapLess orders local indices by (level, index) ascending — a total order,
// since a unit never repeats an iteration.
func heapLess(a, b int32, unit []Iter, lvl [][]int32) bool {
	ia, ib := unit[a], unit[b]
	la, lb := lvl[ia.Loop][ia.Idx], lvl[ib.Loop][ib.Idx]
	if la != lb {
		return la < lb
	}
	return ia.Idx < ib.Idx
}

func heapPush(h []int32, x int32, unit []Iter, lvl [][]int32) []int32 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p], unit, lvl) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []int32, unit []Iter, lvl [][]int32) ([]int32, int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && heapLess(h[l], h[s], unit, lvl) {
			s = l
		}
		if r < len(h) && heapLess(h[r], h[s], unit, lvl) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, top
}
