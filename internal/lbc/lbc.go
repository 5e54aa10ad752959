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
	params = params.withDefaults()
	if r < 1 {
		r = 1
	}
	sc := dag.NewScratch()
	lvl, err := sc.Levels(g)
	if err != nil {
		return nil, err
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
	tg := g.Transpose()

	// Phase A (sequential): choose the window extents. Each window grows
	// level by level and is cut where the balance criterion last held; the
	// next window starts where the previous one was cut, so this scan is
	// inherently serial.
	uf := newUnionFind(g.N)
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
		windows = append(windows, window{lo, bestHi})
		lo = bestHi + 1
	}

	// Phase B (parallel): finalize each window — re-aggregate components on
	// the chosen extent only (the tentative pass may have merged components
	// through discarded levels), then bin-pack. Windows are independent, so
	// each lands in its own indexed slot and the result does not depend on
	// the worker count. Worker 0 reuses the phase-A union-find; extra
	// workers lazily allocate their own.
	p := &partition.Partitioning{S: make([][][]int, len(windows))}
	ufs := make([]*unionFind, par.Workers(r, len(windows)))
	ufs[0] = uf
	par.ForEachWorker(r, len(windows), func(worker, i int) {
		u := ufs[worker]
		if u == nil {
			u = newUnionFind(g.N)
			ufs[worker] = u
		}
		win := windows[i]
		u.reset()
		for h := win.lo; h <= win.hi; h++ {
			u.addLevel(g, tg, sets[h])
		}
		vs := setVerts[setOff[win.lo]:setOff[win.hi+1]]
		p.S[i] = packLPT(g, lvl, u.groups(vs), r)
	})
	return p.Compact(), nil
}

// unionFind is a weighted union-find over vertex ids with O(1) amortized
// reset: only vertices touched since the last reset are reinitialized. It
// tracks the heaviest component, the quantity LBC's balance criterion needs.
type unionFind struct {
	parent  []int
	compW   []int
	in      []bool
	compOf  []int32 // component rank per root, assigned by groups
	touched []int
	maxComp int
}

func newUnionFind(n int) *unionFind {
	return &unionFind{parent: make([]int, n), compW: make([]int, n), in: make([]bool, n), compOf: make([]int32, n)}
}

func (u *unionFind) reset() {
	for _, v := range u.touched {
		u.in[v] = false
	}
	u.touched = u.touched[:0]
	u.maxComp = 0
}

func (u *unionFind) add(v, w int) {
	u.parent[v] = v
	u.compW[v] = w
	u.in[v] = true
	u.compOf[v] = -1
	u.touched = append(u.touched, v)
	if w > u.maxComp {
		u.maxComp = w
	}
}

func (u *unionFind) find(v int) int {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

// addLevel inserts a wavefront's vertices, unioning them with in-window
// neighbors, and returns the total vertex weight added.
func (u *unionFind) addLevel(g, tg *dag.Graph, level []int) int {
	added := 0
	for _, v := range level {
		w := g.Weight(v)
		u.add(v, w)
		added += w
	}
	for _, v := range level {
		for _, s := range g.Succ(v) {
			if u.in[s] {
				u.union(v, s)
			}
		}
		for _, s := range tg.Succ(v) {
			if u.in[s] {
				u.union(v, s)
			}
		}
	}
	return added
}

// union merges the sets of a and b, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	u.compW[rb] += u.compW[ra]
	if u.compW[rb] > u.maxComp {
		u.maxComp = u.compW[rb]
	}
	return true
}

// groups materializes the components of the inserted vertices, ordered by
// their first member in vs order (vs is level-ordered, so that member is
// stable) — the same order the former map-based implementation produced by
// sorting roots. Flat component labels over the union-find's own arrays
// replace the map: two passes over vs, no hashing, one backing allocation.
func (u *unionFind) groups(vs []int) [][]int {
	type compInfo struct{ first, size int }
	var comps []compInfo
	for _, v := range vs {
		r := u.find(v)
		if u.compOf[r] < 0 {
			u.compOf[r] = int32(len(comps))
			comps = append(comps, compInfo{first: v})
		}
		comps[u.compOf[r]].size++
	}
	// Rank components ascending by first member; ranks[c] is the output
	// position of label c.
	order := make([]int32, len(comps))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return comps[a].first - comps[b].first
	})
	ranks := make([]int32, len(comps))
	for rank, c := range order {
		ranks[c] = int32(rank)
	}
	// Carve the output slices out of one backing array, sized per component,
	// then fill in vs order (members stay level-ordered within a component).
	backing := make([]int, len(vs))
	out := make([][]int, len(comps))
	off := 0
	for _, c := range order {
		out[ranks[c]] = backing[off : off : off+comps[c].size]
		off += comps[c].size
	}
	for _, v := range vs {
		rank := ranks[u.compOf[u.find(v)]]
		out[rank] = append(out[rank], v)
	}
	return out
}

// packLPT packs components into at most r bins, then orders each bin's
// vertices by (level, id) so intra-component dependencies are satisfied by
// sequential execution. Two regimes:
//
//   - many small components (4r or more, the parallel-loop shape): greedy
//     chunking in index order, preserving the contiguous row ranges spatial
//     locality depends on;
//   - few, heterogeneous components: longest-processing-time bin packing,
//     which balances better when component weights vary.
func packLPT(g *dag.Graph, lvl []int32, comps [][]int, r int) [][]int {
	type wc struct {
		vs   []int
		cost int
	}
	items := make([]wc, len(comps))
	total := 0
	for i, c := range comps {
		cost := 0
		for _, v := range c {
			cost += g.Weight(v)
		}
		items[i] = wc{c, cost}
		total += cost
	}
	k := r
	if len(items) < k {
		k = len(items)
	}
	var bins [][]int
	if len(items) >= 4*r {
		// Ordered greedy chunking: components come in ascending-min-vertex
		// order from the union-find grouping, so consecutive components
		// cover adjacent index ranges.
		bins = make([][]int, 0, k)
		target := (total + k - 1) / k
		var cur []int
		acc, remaining := 0, total
		for i, it := range items {
			cur = append(cur, it.vs...)
			acc += it.cost
			slotsLeft := k - len(bins) - 1
			if acc >= target && slotsLeft > 0 && len(items)-i-1 >= slotsLeft {
				bins = append(bins, cur)
				remaining -= acc
				cur, acc = nil, 0
				target = (remaining + slotsLeft - 1) / slotsLeft
				if target < 1 {
					target = 1
				}
			}
		}
		if len(cur) > 0 {
			bins = append(bins, cur)
		}
	} else {
		// Heaviest first; equal costs tie-break on the first member so the
		// order is total — LPT packing is then independent of the sort
		// algorithm, which the parallel-vs-serial byte-identity guarantee
		// relies on (the seed's cost-only comparator left ties to the
		// sort's internals).
		slices.SortFunc(items, func(a, b wc) int {
			if a.cost != b.cost {
				return b.cost - a.cost
			}
			return a.vs[0] - b.vs[0]
		})
		bins = make([][]int, k)
		binCost := make([]int, k)
		for _, it := range items {
			best := 0
			for b := 1; b < k; b++ {
				if binCost[b] < binCost[best] {
					best = b
				}
			}
			bins[best] = append(bins[best], it.vs...)
			binCost[best] += it.cost
		}
	}
	for _, b := range bins {
		slices.SortFunc(b, func(x, y int) int {
			if lvl[x] != lvl[y] {
				return int(lvl[x] - lvl[y])
			}
			return x - y
		})
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
