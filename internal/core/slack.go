package core

import "slices"

// slackBalance implements ICO step (ii)'s slack vertex assignment (paper
// section 3.2.2, Algorithm 1 lines 12-16): iterations that can be postponed
// without delaying any dependent — positive slack — are removed from the
// fused partitioning and re-dispersed into underloaded w-partitions of later
// s-partitions, balancing every s-partition to within the threshold
// epsilon = 0.1% of the total weight (Algorithm 1 line 12).
//
// Safety argument: latest(v) is computed against current successor
// placements and vertices only ever move forward, so for an edge u -> v,
// latest(u) <= s(v)-1 guarantees u lands strictly before v wherever v goes.
func (st *state) slackBalance() {
	b := st.numS()
	if b <= 1 {
		return
	}
	total := 0
	for _, g := range st.loops.G {
		total += g.TotalWeight()
	}
	eps := total / 1000
	if eps < 1 {
		eps = 1
	}

	// pool lists the iterations with positive slack in (loop, index) order,
	// so ordering pool indices orders their iterations.
	type slackIter struct {
		loop, idx      int32
		origS, origW   int32
		latest, weight int32
	}
	var pool []slackIter
	// flag[k][i]: 0 in place, pending when removed into the pool, placed
	// once re-placed. One backing array holds every loop's row.
	const (
		pending = 1
		placed  = 2
	)
	flag := make([][]uint8, len(st.loops.G))
	flags := make([]uint8, st.loops.TotalIterations())
	for k, g := range st.loops.G {
		flag[k], flags = flags[:g.N:g.N], flags[g.N:]
	}
	last := int32(b - 1)
	for k, g := range st.loops.G {
		d := &st.deps[k]
		ps, pw := st.posS[k], st.posW[k]
		var ns []int32
		if k+1 < len(st.posS) {
			ns = st.posS[k+1]
		}
		for i := 0; i < g.N; i++ {
			latest := last
			for _, su := range d.succs(i) {
				latest = min(latest, ps[su]-1)
			}
			for _, su := range d.nextSuccs(i) {
				latest = min(latest, ns[su]-1)
			}
			if s := ps[i]; latest > s {
				w := g.Weight(i)
				pool = append(pool, slackIter{int32(k), int32(i), s, pw[i], latest, int32(w)})
				flag[k][i] = pending
				st.cost[s][pw[i]] -= w
			}
		}
	}
	if len(pool) == 0 {
		return
	}
	// slotAt decides whether it can be placed into s-partition s and which
	// w-partition it may use: every predecessor must be placed already and
	// sit before s, except predecessors inside s itself, which must share a
	// single w-partition — then that slot is forced (pairing co-location).
	// Returns (-1, true) for a free slot choice, (w, true) for a forced
	// slot, or (_, false) when placement at s is impossible.
	slotAt := func(si slackIter, s int) (int, bool) {
		sc := slotCheck{s: int32(s), forced: -1}
		k, i := int(si.loop), int(si.idx)
		d := &st.deps[k]
		fl, ps, pw := flag[k], st.posS[k], st.posW[k]
		for _, pr := range d.preds(i) {
			if !sc.add(fl[pr] == pending, ps[pr], pw[pr]) {
				return 0, false
			}
		}
		if k > 0 {
			fl, ps, pw = flag[k-1], st.posS[k-1], st.posW[k-1]
			for _, pr := range d.crossPreds(i) {
				if !sc.add(fl[pr] == pending, ps[pr], pw[pr]) {
					return 0, false
				}
			}
		}
		return int(sc.forced), true
	}
	put := func(si slackIter, s, w int) {
		st.assign(int(si.loop), int(si.idx), s, w)
		flag[si.loop][si.idx] = placed
	}
	putFree := func(si slackIter, s int) {
		st.assignFree(int(si.loop), int(si.idx), s)
		flag[si.loop][si.idx] = placed
	}
	isPlaced := func(si slackIter) bool { return flag[si.loop][si.idx] == placed }
	// byDeadline[s] lists pool indices that MUST be placed at s.
	byDeadline := make([][]int32, b)
	// byAvailable[s] lists pool indices that become candidates at s. An
	// iteration may return to its original s-partition (in any slot, if its
	// predecessors allow — slotAt checks) or postpone up to latest.
	byAvailable := make([][]int32, b)
	for idx, si := range pool {
		byDeadline[si.latest] = append(byDeadline[si.latest], int32(idx))
		byAvailable[si.origS] = append(byAvailable[si.origS], int32(idx))
	}
	// Static idle capacity of every s-partition after removal: how much
	// slack weight it can absorb without raising its critical (max-slot)
	// cost. Postponement is budgeted against the future capacity so later
	// narrow s-partitions (figure 1's tail wavefronts) receive filler while
	// everything else disperses near its origin (the paper's assign_even).
	deficit := make([]int, b)
	slackAt := make([]int, b)
	for _, si := range pool {
		slackAt[si.origS] += int(si.weight)
	}
	for s := 0; s < b; s++ {
		maxC := maxIntSlice(st.cost[s])
		for _, c := range st.cost[s] {
			deficit[s] += maxC - c
		}
		if extra := st.p.Threads - len(st.cost[s]); extra > 0 {
			deficit[s] += extra * maxC
		}
		// A partition's own slack fills its idle capacity first; only the
		// uncovered remainder can absorb postponed work from earlier.
		deficit[s] -= slackAt[s]
		if deficit[s] < 0 {
			deficit[s] = 0
		}
	}
	suffix := make([]int, b+1)
	for s := b - 1; s >= 0; s-- {
		suffix[s] = suffix[s+1] + deficit[s]
	}
	booked := 0

	var candidates []int32
	for s := 0; s < b; s++ {
		// Mandatory placements first: deadline reached.
		for _, idx := range byDeadline[s] {
			si := pool[idx]
			if isPlaced(si) {
				continue
			}
			if s == int(si.origS) {
				// Never eligible to move (latest == origS should not be in
				// the pool); defensive.
				put(si, s, int(si.origW))
				continue
			}
			putFree(si, s)
			booked -= int(si.weight)
		}
		// Refill the candidate list and order it by (loop, index) so that
		// consecutive placements cover contiguous index ranges — spatial
		// locality matters more here than the marginal balance gain of
		// heaviest-first packing, which the sticky-granule re-evaluation of
		// the lightest slot recovers anyway. Pool indices ascend with
		// (loop, index), so sorting the indices is that order.
		candidates = append(candidates, byAvailable[s]...)
		slices.Sort(candidates)
		// Fill idle capacity: place candidates into slots that sit below the
		// partition's critical cost, never raising the max by more than eps.
		// One index-ordered pass over the candidates keeps the whole phase
		// linear in the pool size.
		maxC := maxIntSlice(st.cost[s])
		for ci, idx := range candidates {
			if idx < 0 {
				continue
			}
			si := pool[idx]
			weight := int(si.weight)
			if isPlaced(si) || int(si.latest) < s {
				candidates[ci] = -1
				continue
			}
			w, ok := slotAt(si, s)
			if !ok {
				continue
			}
			if w < 0 {
				// Free slot choice: sticky filling for contiguity, bounded
				// by the partition's critical cost.
				if st.stickS != s || st.stickLeft <= 0 ||
					st.cost[s][st.stickW]+weight > maxC+eps {
					st.stickS, st.stickW, st.stickLeft = s, st.lightestW(s), stickyGranule
				}
				if st.cost[s][st.stickW]+weight > maxC+eps {
					continue
				}
				w = st.stickW
				st.stickLeft--
			} else {
				st.ensureW(s, w)
				if st.cost[s][w]+weight > maxC+eps {
					continue
				}
			}
			if fromLater := int(si.origS) < s; fromLater {
				booked -= weight
			}
			put(si, s, w)
			if c := st.cost[s][w]; c > maxC {
				maxC = c
			}
			candidates[ci] = -1
		}
		// Leftovers that originated here either postpone (if future
		// partitions have unbooked capacity) or spread evenly now.
		compacted := candidates[:0]
		for _, idx := range candidates {
			if idx >= 0 {
				compacted = append(compacted, idx)
			}
		}
		candidates = compacted
		for ci, idx := range candidates {
			si := pool[idx]
			if isPlaced(si) || int(si.origS) != s {
				continue
			}
			if int(si.latest) > s && booked+int(si.weight) <= suffix[s+1] {
				booked += int(si.weight)
				continue
			}
			w, ok := slotAt(si, s)
			if !ok {
				continue // deadline placement will catch it
			}
			if w < 0 {
				putFree(si, s)
			} else {
				put(si, s, w)
			}
			candidates[ci] = -1
		}
		// Drop spent entries to keep the scan linear overall.
		live := candidates[:0]
		for _, idx := range candidates {
			if idx >= 0 && !isPlaced(pool[idx]) && int(pool[idx].latest) > s {
				live = append(live, idx)
			}
		}
		candidates = live
	}
	st.compactS()
}

// slotCheck accumulates slotAt's verdict over a walk of predecessors.
type slotCheck struct {
	s, forced int32
}

// add folds in one predecessor, pending when it is in the slack pool and
// not yet re-placed, and reports whether placement at s is still possible.
func (c *slotCheck) add(pending bool, ps, pw int32) bool {
	switch {
	case pending || ps > c.s:
		return false
	case ps == c.s:
		if c.forced == -1 {
			c.forced = pw
		} else if c.forced != pw {
			return false
		}
	}
	return true
}
