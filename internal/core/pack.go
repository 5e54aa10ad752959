package core

import (
	"fmt"
	"slices"

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
// the inspector's workers (Params.Threads) — each unit writes its own range
// of the result, making the schedule identical for every worker count. The
// schedule's units are carved out of one backing array, in the order the
// grouping lists them.
func (st *state) pack(reuse float64) *Schedule {
	g := st.group()
	sched := &Schedule{ReuseRatio: reuse, Interleaved: reuse >= 1}
	// Only non-empty units are scheduled; the nesting is carved out of one
	// array per level, sized for every unit.
	type job struct{ s, u int32 }
	nUnits := len(g.off) - 1
	out := make([]Iter, len(g.its))
	units := make([][]Iter, 0, nUnits)
	jobs := make([]job, 0, nUnits)
	sched.S = make([][][]Iter, 0, g.numS())
	for s := 0; s < g.numS(); s++ {
		first := len(units)
		for w := 0; w < g.width(s); w++ {
			u := g.base[s] + int32(w)
			if lo, hi := g.off[u], g.off[u+1]; lo < hi {
				units = append(units, out[lo:hi:hi])
				jobs = append(jobs, job{int32(s), u})
			}
		}
		if len(units) > first {
			sched.S = append(sched.S, units[first:len(units):len(units)])
		}
	}
	if sched.Interleaved {
		// local[k][i] is iteration i's position in its own unit; units are
		// disjoint, so concurrent units write disjoint entries.
		local := int32Rows(st.sizes())
		scratch := make([]*packScratch, par.Workers(st.p.Threads, len(jobs)))
		par.ForEachWorker(st.p.Threads, len(jobs), func(worker, j int) {
			ps := scratch[worker]
			if ps == nil {
				ps = &packScratch{ready: make([][]int32, len(st.loops.G))}
				scratch[worker] = ps
			}
			u := jobs[j].u
			st.interleavedPack(g.span(u), out[g.off[u]:g.off[u+1]], int(jobs[j].s), local, ps)
		})
	} else {
		keys := make([][]uint64, par.Workers(st.p.Threads, len(jobs)))
		par.ForEachWorker(st.p.Threads, len(jobs), func(worker, j int) {
			u := jobs[j].u
			keys[worker] = st.separatedPack(g.span(u), out[g.off[u]:g.off[u+1]], keys[worker])
		})
	}
	return sched
}

// sizes lists the loops' trip counts.
func (st *state) sizes() []int {
	n := make([]int, len(st.loops.G))
	for k, g := range st.loops.G {
		n[k] = g.N
	}
	return n
}

// levelKey orders iterations of one loop by (wavefront level, tie), with
// tie the index or any position that ascends with it.
func levelKey(level int32, tie int) uint64 { return uint64(level)<<32 | uint64(tie) }

// keyTie is the tie a levelKey was built with.
func keyTie(key uint64) int { return int(uint32(key)) }

// separatedPack writes into out the w-partition unit (loop by loop, indices
// ascending) ordered loop by loop, each loop's iterations by (wavefront
// level, index). Intra-loop dependencies are satisfied because a
// predecessor always has a smaller level; cross-loop dependencies only flow
// from loop k to loop k+1 and the loop-k block comes first. keys is the
// worker's sort buffer, returned grown.
func (st *state) separatedPack(unit, out []Iter, keys []uint64) []uint64 {
	for lo := 0; lo < len(unit); {
		k := unit[lo].Loop
		hi := lo + 1
		for hi < len(unit) && unit[hi].Loop == k {
			hi++
		}
		keys = keys[:0]
		lvl := st.lvl[k]
		for _, it := range unit[lo:hi] {
			keys = append(keys, levelKey(lvl[it.Idx], it.Idx))
		}
		slices.Sort(keys)
		for j, key := range keys {
			out[lo+j] = Iter{k, keyTie(key)}
		}
		lo = hi
	}
	return keys
}

// packScratch is one worker's reusable state for interleavedPack.
type packScratch struct {
	keys  []uint64
	indeg []int32
	edges []inEdge
	off   []int32   // successors of local index p: succ[off[p]:off[p+1]]
	succ  []int32   // successor local indices, grouped by producer
	ready [][]int32 // per loop >= 1: ready local indices, next pick last
}

// inEdge is an in-unit dependence between local indices.
type inEdge struct{ from, to int32 }

// interleavedPack writes into out a topological order of the partition's
// members (loop by loop, indices ascending; s-partition s) that greedily
// prefers later-loop iterations: the moment a consumer's dependencies are
// complete it runs, placing it right after its producers (the paper's
// interleaved_pack driven by F).
//
// Producers of loop 0 run in (level, index) order. A loop-0 iteration's
// in-unit predecessors are loop-0 iterations at a strictly lower level —
// loop 0 has no F in — so that order is always runnable: every member with
// a smaller key has run by the time its turn comes. Loop 0's members are
// therefore sorted once and walked, and in-unit edges are recorded only for
// consumers in loops >= 1, which run from LIFO ready stacks as their
// producers release them.
func (st *state) interleavedPack(unit, out []Iter, s int, local [][]int32, ps *packScratch) {
	n := len(unit)
	for li, it := range unit {
		local[it.Loop][it.Idx] = int32(li)
	}
	n0 := 0
	for n0 < n && unit[n0].Loop == 0 {
		n0++
	}
	ps.indeg = resize(ps.indeg, n)
	clear(ps.indeg)
	edges := ps.edges[:0]
	s32 := int32(s)
	w := st.posW[unit[0].Loop][unit[0].Idx]
	for li := n0; li < n; li++ {
		k, i := unit[li].Loop, unit[li].Idx
		d := &st.deps[k]
		rs, rw, loc := st.posS[k], st.posW[k], local[k]
		for _, pr := range d.preds(i) {
			if rs[pr] == s32 && rw[pr] == w {
				edges = append(edges, inEdge{loc[pr], int32(li)})
			}
		}
		rs, rw, loc = st.posS[k-1], st.posW[k-1], local[k-1]
		for _, pr := range d.crossPreds(i) {
			if rs[pr] == s32 && rw[pr] == w {
				edges = append(edges, inEdge{loc[pr], int32(li)})
			}
		}
	}
	ps.edges = edges
	// Successor lists by counting; each producer's list keeps the consumers
	// in ascending local order, the order their edges were found in.
	ps.off = resize(ps.off, n+1)
	clear(ps.off)
	for _, e := range edges {
		ps.off[e.from+1]++
		ps.indeg[e.to]++
	}
	for p := 0; p < n; p++ {
		ps.off[p+1] += ps.off[p]
	}
	ps.succ = resize(ps.succ, len(edges))
	for _, e := range edges {
		ps.succ[ps.off[e.from]] = e.to
		ps.off[e.from]++
	}
	copy(ps.off[1:], ps.off[:n]) // each entry now ends its list: shift back
	ps.off[0] = 0

	// Loop 0 in (level, index) order; members ascend by index, so the local
	// index breaks ties the same way.
	keys := ps.keys[:0]
	lvl := st.lvl[0]
	for li, it := range unit[:n0] {
		keys = append(keys, levelKey(lvl[it.Idx], li))
	}
	slices.Sort(keys)
	// Initially ready consumers, smallest (level, index) on top of each
	// loop's stack.
	ready := ps.ready
	for k := range ready {
		ready[k] = ready[k][:0]
	}
	for lo := n0; lo < n; {
		k := unit[lo].Loop
		hi := lo + 1
		for hi < n && unit[hi].Loop == k {
			hi++
		}
		start := len(keys)
		for li := lo; li < hi; li++ {
			if ps.indeg[li] == 0 {
				keys = append(keys, levelKey(st.lvl[k][unit[li].Idx], li))
			}
		}
		slices.Sort(keys[start:])
		for j := len(keys) - 1; j >= start; j-- {
			ready[k] = append(ready[k], int32(keyTie(keys[j])))
		}
		lo = hi
	}
	ps.keys = keys

	next0 := 0
	for o := range out {
		picked := int32(-1)
		for k := len(ready) - 1; k >= 1; k-- {
			if m := len(ready[k]); m > 0 {
				picked = ready[k][m-1]
				ready[k] = ready[k][:m-1]
				break
			}
		}
		if picked < 0 {
			if next0 == n0 {
				// Cannot happen for an acyclic dependence structure.
				panic(fmt.Sprintf("core: interleaved packing wedged with %d of %d placed", o, n))
			}
			picked = int32(keyTie(keys[next0]))
			next0++
		}
		out[o] = unit[picked]
		for _, c := range ps.succ[ps.off[picked]:ps.off[picked+1]] {
			ps.indeg[c]--
			if ps.indeg[c] == 0 {
				// Consumers run LIFO, which places them immediately after the
				// producer that released them.
				k := unit[c].Loop
				ready[k] = append(ready[k], c)
			}
		}
	}
}
