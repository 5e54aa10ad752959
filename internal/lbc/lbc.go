// Package lbc implements Load-Balanced Level Coarsening (Cheshmi et al.,
// "ParSy", SC'18), the DAG partitioner sparse fusion builds on and the
// "fused LBC" baseline of the paper. LBC aggregates consecutive wavefronts of
// a DAG into s-partitions; inside each s-partition it finds weakly-connected
// components of the induced subgraph (which are mutually independent by
// construction) and packs them into at most r weight-balanced w-partitions.
//
// Two tuning parameters follow the paper (section 4.1): InitialCut, the
// number of wavefronts in the first s-partition, and Agg, the coarsening
// factor, i.e. the number of wavefronts aggregated into each subsequent
// s-partition.
package lbc

import (
	"slices"
	"sort"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/par"
	"sparsefusion/internal/partition"
)

// Params configures LBC. The zero value selects the paper's tuning.
type Params struct {
	InitialCut int // wavefronts in the first s-partition (paper: 4)
	Agg        int // wavefronts per subsequent s-partition (paper: 400)
}

// DefaultParams returns the tuning used throughout the paper's evaluation.
func DefaultParams() Params { return Params{InitialCut: 4, Agg: 400} }

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.InitialCut <= 0 {
		p.InitialCut = d.InitialCut
	}
	if p.Agg <= 0 {
		p.Agg = d.Agg
	}
	return p
}

// Schedule partitions g for r threads. The result always validates against g.
//
// Windows over the wavefront axis are chosen adaptively, as in ParSy's LBC:
// a window grows level by level (up to Agg levels; InitialCut for the first
// window) and is cut at the largest extent that still leaves at least r
// weakly-connected components in the induced subgraph — the independent
// workloads the threads need. When no extent reaches r components the full
// window is taken, trading unavailable parallelism for fewer barriers.
//
// The windows are finalized across min(r, GOMAXPROCS) goroutines; the result
// is byte-identical at any fan-out — window extents are chosen by a
// sequential scan, and each window's result is independent.
func Schedule(g *dag.Graph, r int, params Params) (*partition.Partitioning, error) {
	lvl, err := dag.NewScratch().Levels(g)
	if err != nil {
		return nil, err
	}
	return ScheduleLevels(g, g.Transpose(), lvl, r, params), nil
}

// ScheduleLevels is Schedule for a caller that already holds g's transpose
// tg and wavefront numbers (dag.Scratch.Levels); it reads both and keeps
// neither.
func ScheduleLevels(g, tg *dag.Graph, lvl []int32, r int, params Params) *partition.Partitioning {
	params = params.withDefaults()
	if r < 1 {
		r = 1
	}
	var maxL int32
	for _, l := range lvl {
		if l > maxL {
			maxL = l
		}
	}
	// Level sets by counting into one backing array: sets[l] lists the
	// vertices of wavefront l in ascending index order.
	setOff := make([]int, int(maxL)+2)
	for _, l := range lvl {
		setOff[l+1]++
	}
	for l := 0; l < int(maxL)+1; l++ {
		setOff[l+1] += setOff[l]
	}
	setVerts := make([]int, g.N)
	fill := make([]int, int(maxL)+1)
	copy(fill, setOff)
	for v := 0; v < g.N; v++ {
		setVerts[fill[lvl[v]]] = v
		fill[lvl[v]]++
	}
	sets := make([][]int, int(maxL)+1)
	for l := range sets {
		sets[l] = setVerts[setOff[l]:setOff[l+1]]
	}
	maxVertexW := 1
	for v := 0; v < g.N; v++ {
		if w := g.Weight(v); w > maxVertexW {
			maxVertexW = w
		}
	}

	// Phase A (sequential): choose the window extents. Each window grows
	// level by level and is cut where the balance criterion last held; the
	// next window starts where the previous one was cut, so this scan is
	// inherently serial.
	uf := newUnionFind(g.N)
	rootOf := make([]int32, g.N)
	type window struct{ lo, hi int }
	var windows []window
	lo := 0
	for lo <= int(maxL) {
		span := params.Agg
		if lo == 0 {
			span = params.InitialCut
		}
		end := lo + span
		if end > int(maxL)+1 {
			end = int(maxL) + 1
		}
		// Tentative pass: extend the window level by level. An extent is
		// acceptable when its heaviest weakly-connected component stays
		// below the per-thread share of the window weight (LBC's balance
		// criterion) — a single oversized vertex is never held against it.
		// The union-find checkpoints after the first level and after every
		// acceptable extent, so the extent finally chosen can be restored
		// without re-adding its levels.
		uf.reset()
		bestHi := -1
		totalW := 0
		count := 0
		lastH := lo
		for h := lo; h < end; h++ {
			totalW += uf.addLevel(g, tg, sets[h])
			count += len(sets[h])
			lastH = h
			limit := (totalW*11 + 10*r - 1) / (10 * r) // ceil(1.1 * totalW / r)
			if limit < maxVertexW {
				limit = maxVertexW
			}
			if uf.maxComp <= limit {
				bestHi = h
			}
			if h == lo || bestHi == h {
				uf.checkpoint()
			}
			// Patience cut: once the balance criterion has failed for
			// several consecutive levels it will not recover on blob-shaped
			// DAGs, and scanning the full Agg lookahead per window would turn
			// the pass quadratic. Chain-like windows — levels of at most r
			// vertices, where no cut can create parallelism anyway — are
			// exempt: they want the longest window to minimize barriers.
			chainLike := count <= (h-lo+1)*r
			last := bestHi
			if last < 0 {
				last = lo
			}
			if !chainLike && h-last >= 8 {
				break
			}
		}
		if bestHi < 0 {
			// No extent is balanced. A chain-like window gains nothing from
			// cutting — take the full scanned extent to save barriers;
			// otherwise fall back to a single wavefront, whose vertices are
			// mutually independent.
			if count <= (lastH-lo+1)*r {
				bestHi = lastH
			} else {
				bestHi = lo
			}
		}
		// The tentative pass may have merged components through levels
		// past the cut: restore the last checkpoint, which is the chosen
		// extent unless that is the whole scan, and record every window
		// vertex's component.
		if bestHi != lastH {
			uf.rollback()
		}
		for _, v := range setVerts[setOff[lo]:setOff[bestHi+1]] {
			rootOf[v] = uf.find(int32(v))
		}
		windows = append(windows, window{lo, bestHi})
		lo = bestHi + 1
	}

	// Phase B (parallel): finalize each window — group its vertices into
	// the components phase A recorded, then bin-pack. Windows are
	// independent and disjoint (a component's root lies in its window, so
	// compOf entries are too), so each lands in its own indexed slot and the
	// result does not depend on the worker count.
	p := &partition.Partitioning{S: make([][][]int, len(windows))}
	compOf := make([]int32, g.N)
	par.ForEach(r, len(windows), func(i int) {
		win := windows[i]
		vs := setVerts[setOff[win.lo]:setOff[win.hi+1]]
		p.S[i] = packLPT(g, vs, rootOf, compOf, r)
	})
	return p.Compact()
}

// unionFind is a weighted union-find over vertex ids with O(1) amortized
// reset: only vertices touched since the last reset are reinitialized. It
// tracks the heaviest component, the quantity LBC's balance criterion needs,
// and can roll back to its last checkpoint: it unions by size and never
// compresses paths, so a union is its only write and undoing the unions
// logged since the checkpoint, newest first, restores the forest exactly.
type unionFind struct {
	parent  []int32
	size    []int32
	compW   []int
	in      []bool
	touched []int32
	maxComp int

	log  []merged // unions since the checkpoint
	mark int      // len(touched) at the checkpoint
}

// merged records one union: root a was hung under root b.
type merged struct{ a, b int32 }

func newUnionFind(n int) *unionFind {
	return &unionFind{parent: make([]int32, n), size: make([]int32, n), compW: make([]int, n), in: make([]bool, n)}
}

func (u *unionFind) reset() {
	for _, v := range u.touched {
		u.in[v] = false
	}
	u.touched = u.touched[:0]
	u.maxComp = 0
	u.checkpoint()
}

// checkpoint makes the current forest the one rollback restores.
func (u *unionFind) checkpoint() {
	u.log = u.log[:0]
	u.mark = len(u.touched)
}

// rollback restores the forest of the last checkpoint: vertices added
// since leave, unions since are undone. maxComp is not restored.
func (u *unionFind) rollback() {
	for i := len(u.log) - 1; i >= 0; i-- {
		m := u.log[i]
		u.parent[m.a] = m.a
		u.size[m.b] -= u.size[m.a]
		u.compW[m.b] -= u.compW[m.a]
	}
	for _, v := range u.touched[u.mark:] {
		u.in[v] = false
	}
	u.touched = u.touched[:u.mark]
	u.log = u.log[:0]
}

func (u *unionFind) add(v int32, w int) {
	u.parent[v] = v
	u.size[v] = 1
	u.compW[v] = w
	u.in[v] = true
	u.touched = append(u.touched, v)
	if w > u.maxComp {
		u.maxComp = w
	}
}

// find returns v's root. Union by size keeps every path logarithmic.
func (u *unionFind) find(v int32) int32 {
	for u.parent[v] != v {
		v = u.parent[v]
	}
	return v
}

// addLevel inserts a wavefront's vertices, unioning them with their
// in-window predecessors, and returns the total vertex weight added. Only
// predecessors need a look: a window gains its levels in ascending order,
// and a successor sits at a strictly higher level, so none is in the window
// yet — the edge is unioned from the successor's side when its level comes.
func (u *unionFind) addLevel(g, tg *dag.Graph, level []int) int {
	added := 0
	for _, v := range level {
		w := g.Weight(v)
		u.add(int32(v), w)
		added += w
	}
	for _, v := range level {
		for _, p := range tg.Succ(v) {
			if u.in[p] {
				u.union(int32(v), int32(p))
			}
		}
	}
	return added
}

// union merges the sets of a and b, the smaller under the larger.
func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] > u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[ra] = rb
	u.size[rb] += u.size[ra]
	u.compW[rb] += u.compW[ra]
	if u.compW[rb] > u.maxComp {
		u.maxComp = u.compW[rb]
	}
	u.log = append(u.log, merged{ra, rb})
}

// packLPT groups a window's vertices into their components and packs the
// components into at most r bins, each bin listing its vertices by (level,
// id) so intra-component dependencies are satisfied by sequential
// execution. vs lists the window's vertices in that order, rootOf names
// each vertex's component root and compOf is scratch indexed by root.
//
// Components are ranked by the id of their first member in vs order (vs is
// level-ordered, so that member is stable). Two regimes:
//
//   - many small components (4r or more, the parallel-loop shape): greedy
//     chunking in rank order, preserving the contiguous row ranges spatial
//     locality depends on;
//   - few, heterogeneous components: longest-processing-time bin packing,
//     which balances better when component weights vary.
//
// Every bin is then filled by one pass over vs, which lists its members in
// (level, id) order without a sort.
func packLPT(g *dag.Graph, vs []int, rootOf, compOf []int32, r int) [][]int {
	type comp struct{ first, size, cost, bin int }
	var comps []comp
	for _, v := range vs {
		compOf[rootOf[v]] = -1
	}
	for _, v := range vs {
		rt := rootOf[v]
		if compOf[rt] < 0 {
			compOf[rt] = int32(len(comps))
			comps = append(comps, comp{first: v})
		}
		c := &comps[compOf[rt]]
		c.size++
		c.cost += g.Weight(v)
	}
	// items are the component labels in rank order.
	items := make([]int32, len(comps))
	total := 0
	for i := range items {
		items[i] = int32(i)
		total += comps[i].cost
	}
	slices.SortFunc(items, func(a, b int32) int { return comps[a].first - comps[b].first })
	k := r
	if len(items) < k {
		k = len(items)
	}
	nBins := 0
	if len(items) >= 4*r {
		// Ordered greedy chunking: consecutive components cover adjacent
		// index ranges.
		target := (total + k - 1) / k
		acc, remaining := 0, total
		for i, c := range items {
			comps[c].bin = nBins
			acc += comps[c].cost
			slotsLeft := k - nBins - 1
			if acc >= target && slotsLeft > 0 && len(items)-i-1 >= slotsLeft {
				nBins++
				remaining -= acc
				acc = 0
				target = (remaining + slotsLeft - 1) / slotsLeft
				if target < 1 {
					target = 1
				}
			}
		}
		nBins++ // the open bin: the last component never closes one
	} else {
		// Heaviest first; equal costs tie-break on the first member so the
		// order is total — LPT packing is then independent of the sort
		// algorithm, which the parallel-vs-serial byte-identity guarantee
		// relies on (the seed's cost-only comparator left ties to the
		// sort's internals).
		slices.SortFunc(items, func(a, b int32) int {
			if ca, cb := comps[a].cost, comps[b].cost; ca != cb {
				return cb - ca
			}
			return comps[a].first - comps[b].first
		})
		nBins = k
		binCost := make([]int, k)
		for _, c := range items {
			best := 0
			for b := 1; b < k; b++ {
				if binCost[b] < binCost[best] {
					best = b
				}
			}
			comps[c].bin = best
			binCost[best] += comps[c].cost
		}
	}
	// Size every bin, carve them out of one backing array, fill in vs order.
	sizes := make([]int, nBins)
	for _, c := range comps {
		sizes[c.bin] += c.size
	}
	backing := make([]int, len(vs))
	bins := make([][]int, nBins)
	off := 0
	for b, n := range sizes {
		bins[b] = backing[off : off : off+n]
		off += n
	}
	for _, v := range vs {
		b := comps[compOf[rootOf[v]]].bin
		bins[b] = append(bins[b], v)
	}
	return bins
}

// Chordalize returns a supergraph of g whose pattern is chordal, computed as
// the symbolic-factorization fill-in of g's pattern in topological order.
// This mirrors ParSy's requirement that LBC runs on chordal DAGs (L-factors);
// the paper reports that converting the joint DAG to a chordal DAG consumes
// about 64% of the fused-LBC inspection time, which this reproduces. maxFill
// bounds the number of fill edges (<=0 means 16x the input edges) to mirror
// the memory blow-ups the paper reports for joint-DAG tools; when the bound
// is hit, the input graph is returned with ok=false.
func Chordalize(g *dag.Graph, maxFill int) (res *dag.Graph, ok bool) {
	if maxFill <= 0 {
		maxFill = 16 * (g.NumEdges() + 1)
		// Absolute ceiling: past ~20M fill edges the working set enters the
		// gigabytes, the regime where the paper's joint-DAG tools die of
		// memory exhaustion. Callers fall back to the unfilled graph.
		if maxFill > 20_000_000 {
			maxFill = 20_000_000
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return g, false
	}
	pos := make([]int, g.N)
	for i, v := range order {
		pos[v] = i
	}
	// Work in elimination order: vertex i's "higher" neighbors are its
	// successors. Classic fill rule: when eliminating i, its higher
	// neighbors become a clique; we use the elimination-tree shortcut
	// (connect i's lowest higher neighbor to the rest), which produces the
	// same chordal filled graph as symbolic factorization.
	adj := make([][]int, g.N) // higher neighbors by elimination position
	for v := 0; v < g.N; v++ {
		for _, s := range g.Succ(v) {
			adj[pos[v]] = append(adj[pos[v]], pos[s])
		}
	}
	fill := 0
	for i := 0; i < g.N; i++ {
		hi := adj[i]
		if len(hi) < 2 {
			continue
		}
		sort.Ints(hi)
		hi = dedupSorted(hi)
		adj[i] = hi
		parent := hi[0]
		for _, nb := range hi[1:] {
			adj[parent] = append(adj[parent], nb)
			fill++
			if fill > maxFill {
				return g, false
			}
		}
	}
	var edges []dag.Edge
	for i, hi := range adj {
		sort.Ints(hi)
		hi = dedupSorted(hi)
		for _, j := range hi {
			edges = append(edges, dag.Edge{Src: order[i], Dst: order[j]})
		}
	}
	w := make([]int, g.N)
	for v := range w {
		w[v] = g.Weight(v)
	}
	filled, err := dag.FromEdges(g.N, edges, w)
	if err != nil {
		return g, false
	}
	return filled, true
}

func dedupSorted(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ScheduleChordal is the fused-LBC pipeline of the paper: make the DAG
// chordal first (as ParSy's LBC expects L-factor DAGs), then run LBC on the
// filled graph, and report the schedule against the original graph. Because
// the filled graph only adds edges, any valid schedule of it is valid for g.
func ScheduleChordal(g *dag.Graph, r int, params Params) (*partition.Partitioning, error) {
	filled, _ := Chordalize(g, 0)
	return Schedule(filled, r, params)
}
