package core

// merge implements ICO step (ii)'s merging phase (paper section 3.2.2,
// Algorithm 1 lines 9-11): zero-slack w-partitions — those pinned by a
// dependent in the next s-partition, which slack assignment can never
// disperse — are folded into the earliest s-partition their dependencies
// allow, removing synchronizations without raising the schedule's critical
// cost. Pair partitions deferred by partition pairing (the example's
// V_s2,w1 / V_s3,w1 merge, figure 4c) are exactly this shape, and long
// dependence chains collapse into a single w-partition.
func (st *state) merge() {
	// Ascending passes let a fold cascade (a unit merged into s-partition k
	// immediately becomes a merge target for units that depended on it), so
	// one pass captures chains; a second pass picks up stragglers.
	for pass := 0; pass < 2 && st.mergePass(); pass++ {
	}
	st.compactS()
}

// mergePass visits every w-partition in ascending s order and moves it to
// the earliest legal position; returns whether anything moved.
func (st *state) mergePass() bool {
	g := st.group()
	merged := false
	for s := 1; s < g.numS(); s++ {
		maxCur := maxIntSlice(st.cost[s])
		for w := 0; w < g.width(s); w++ {
			unit := g.unit(s, w)
			if len(unit) == 0 {
				continue
			}
			target, targetW, ok := st.mergeTarget(unit, s)
			if !ok || target >= s {
				continue
			}
			c := 0
			for _, it := range unit {
				c += st.loops.G[it.Loop].Weight(it.Idx)
			}
			st.ensureS(target)
			if targetW < 0 {
				targetW = st.lightestW(target)
			}
			st.ensureW(target, targetW)
			// Cost gate: the receiving slot must not exceed the combined
			// critical cost of source and destination s-partitions.
			if st.cost[target][targetW]+c > maxIntSlice(st.cost[target])+maxCur {
				continue
			}
			for _, it := range unit {
				st.posS[it.Loop][it.Idx] = int32(target)
				st.posW[it.Loop][it.Idx] = int32(targetW)
			}
			st.cost[target][targetW] += c
			st.cost[s][w] -= c
			merged = true
		}
	}
	return merged
}

// mergeTarget computes the earliest s-partition the unit can move to:
// one past its latest predecessor, or the predecessor's own (s, w) when all
// latest predecessors share a single w-partition. The unit must have zero
// slack — a dependent in s+1 or nothing after it to postpone toward —
// because positive-slack units belong to slack assignment instead.
// Returns (targetS, targetW, ok); targetW < 0 means any slot.
func (st *state) mergeTarget(unit []Iter, s int) (int, int, bool) {
	s32 := int32(s)
	if !st.zeroSlack(unit, s32) {
		return 0, 0, false
	}
	lp := latestPreds{s: -1, w: -1}
	for _, it := range unit {
		k, i := it.Loop, it.Idx
		d := &st.deps[k]
		ps, pw := st.posS[k], st.posW[k]
		for _, pr := range d.preds(i) {
			if ps[pr] != s32 { // else an intra-unit dependency
				lp.add(ps[pr], pw[pr])
			}
		}
		if k > 0 {
			qs, qw := st.posS[k-1], st.posW[k-1]
			for _, pr := range d.crossPreds(i) {
				if qs[pr] != s32 {
					lp.add(qs[pr], qw[pr])
				}
			}
		}
	}
	if lp.s < 0 {
		// No external predecessors: the earliest slot of s-partition 0.
		return 0, -1, true
	}
	if lp.multi {
		// Latest predecessors span w-partitions: the unit can only sit
		// after their barrier.
		return int(lp.s) + 1, -1, true
	}
	return int(lp.s), int(lp.w), true
}

// zeroSlack reports whether a unit of s-partition s has zero slack: s is
// the last s-partition, or a member has a dependent in s+1.
func (st *state) zeroSlack(unit []Iter, s int32) bool {
	if int(s) == len(st.cost)-1 {
		return true
	}
	for _, it := range unit {
		k, i := it.Loop, it.Idx
		d := &st.deps[k]
		ps := st.posS[k]
		for _, su := range d.succs(i) {
			if ps[su] == s+1 {
				return true
			}
		}
		if k+1 < len(st.posS) {
			ns := st.posS[k+1]
			for _, su := range d.nextSuccs(i) {
				if ns[su] == s+1 {
					return true
				}
			}
		}
	}
	return false
}

// units groups every iteration by its (s, w) placement: unit base[s]+w
// lists its members at its[off[u]:off[u+1]], loop by loop, indices
// ascending within a loop. Merging regroups once per pass and packing once,
// into the same buffers; a counting pass sizes every unit exactly.
type units struct {
	base []int32 // per s-partition: its first unit id; numS+1 entries
	off  []int32 // per unit: its first member; one entry more than units
	its  []Iter
}

func (g *units) numS() int           { return len(g.base) - 1 }
func (g *units) width(s int) int     { return int(g.base[s+1] - g.base[s]) }
func (g *units) span(u int32) []Iter { return g.its[g.off[u]:g.off[u+1]] }
func (g *units) unit(s, w int) []Iter {
	return g.span(g.base[s] + int32(w))
}

// group regroups the current placement into st.units and returns it: one
// counting pass, a prefix sum, one filling pass.
func (st *state) group() *units {
	g := &st.units
	ns := len(st.cost)
	g.base = resize(g.base, ns+1)
	g.base[0] = 0
	for s, row := range st.cost {
		g.base[s+1] = g.base[s] + int32(len(row))
	}
	nu := int(g.base[ns])
	// Count unit u's members into off[u+2]; after the prefix sum off[u+1]
	// is u's first member, and filling advances it to u's end, which is
	// unit u+1's first.
	g.off = resize(g.off, nu+2)
	clear(g.off)
	total := 0
	for k, row := range st.posS {
		ws := st.posW[k]
		total += len(row)
		for i, s := range row {
			g.off[g.base[s]+ws[i]+2]++
		}
	}
	for u := 2; u < len(g.off); u++ {
		g.off[u] += g.off[u-1]
	}
	if cap(g.its) < total {
		g.its = make([]Iter, total)
	}
	g.its = g.its[:total]
	for k, row := range st.posS {
		ws := st.posW[k]
		for i, s := range row {
			u := g.base[s] + ws[i] + 1
			g.its[g.off[u]] = Iter{k, i}
			g.off[u]++
		}
	}
	g.off = g.off[:nu+1]
	return g
}

// resize returns b resliced to n entries, reallocated when it holds fewer.
func resize(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// compactS drops s-partitions that became empty and renumbers positions.
func (st *state) compactS() {
	counts := make([]int32, len(st.cost))
	for _, row := range st.posS {
		for _, s := range row {
			counts[s]++
		}
	}
	remap := counts // each count is read once, before its slot is overwritten
	next := int32(0)
	for s, c := range counts {
		if c > 0 {
			remap[s] = next
			next++
		} else {
			remap[s] = -1
		}
	}
	if int(next) == len(st.cost) {
		return
	}
	for s, ns := range remap { // ns <= s: compacting in place is safe
		if ns >= 0 {
			st.cost[ns] = st.cost[s]
		}
	}
	st.cost = st.cost[:next]
	for _, row := range st.posS {
		for i, s := range row {
			row[i] = remap[s]
		}
	}
}

func maxIntSlice(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}
