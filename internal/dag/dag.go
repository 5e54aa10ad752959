// Package dag implements the dependency-DAG machinery the sparse-fusion
// inspector is built on: construction of iteration DAGs from sparse factors,
// wavefront (level-set) computation, vertex heights, critical paths, slack
// numbers (paper section 3.2.2) and joint-DAG construction for the fused
// baselines.
//
// A Graph stores the out-edges (successor lists) of every vertex in CSR-style
// adjacency arrays, plus a non-negative integer weight per vertex: the paper's
// c(v), the number of nonzeros an iteration touches.
package dag

import (
	"fmt"
	"sort"

	"sparsefusion/internal/sparse"
)

// Graph is a directed acyclic graph over loop iterations.
type Graph struct {
	N int   // number of vertices (loop iterations)
	P []int // out-edge pointers, len N+1
	I []int // successor vertex ids, len NumEdges
	W []int // vertex weights c(v), len N
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.I) }

// Succ returns the successors of v as a shared sub-slice.
func (g *Graph) Succ(v int) []int { return g.I[g.P[v]:g.P[v+1]] }

// Weight returns c(v), defaulting to 1 when no weights were provided.
func (g *Graph) Weight(v int) int {
	if g.W == nil {
		return 1
	}
	return g.W[v]
}

// TotalWeight returns the sum of all vertex weights.
func (g *Graph) TotalWeight() int {
	if g.W == nil {
		return g.N
	}
	t := 0
	for _, w := range g.W {
		t += w
	}
	return t
}

// Edge is a single dependency from Src to Dst (Src must run before Dst).
type Edge struct{ Src, Dst int }

// FromEdges builds a graph with n vertices from an edge list. Duplicate edges
// are removed and successor lists are sorted. w may be nil (unit weights).
func FromEdges(n int, edges []Edge, w []int) (*Graph, error) {
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("dag: edge (%d,%d) out of bounds for n=%d", e.Src, e.Dst, n)
		}
		if e.Src == e.Dst {
			return nil, fmt.Errorf("dag: self-loop at %d", e.Src)
		}
	}
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	g := &Graph{N: n, P: make([]int, n+1), W: w}
	for k := 0; k < len(sorted); k++ {
		if k > 0 && sorted[k] == sorted[k-1] {
			continue
		}
		g.I = append(g.I, sorted[k].Dst)
		g.P[sorted[k].Src+1]++
	}
	for v := 0; v < n; v++ {
		g.P[v+1] += g.P[v]
	}
	return g, nil
}

// FromLowerCSR builds the iteration DAG of a kernel whose dependence pattern
// is the strictly-lower part of a CSR matrix (SpTRSV, SpIC0, SpILU0 in the
// paper): each strictly-lower nonzero L[i][j] is a dependency from iteration
// j to iteration i. Entries on or above the diagonal contribute no edges, so
// the matrix may be a lower-triangular factor or a full matrix (SpILU0 passes
// the whole A). The vertex weight is the number of nonzeros in row i.
func FromLowerCSR(l *sparse.CSR) *Graph {
	n := l.Rows
	g := &Graph{N: n, P: make([]int, n+1), W: make([]int, n)}
	// Count in-CSC order: edge j -> i for every strictly-lower (i, j).
	for r := 0; r < n; r++ {
		g.W[r] = l.P[r+1] - l.P[r]
		for k := l.P[r]; k < l.P[r+1]; k++ {
			if c := l.I[k]; c < r {
				g.P[c+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.P[v+1] += g.P[v]
	}
	g.I = make([]int, g.P[n])
	next := make([]int, n)
	copy(next, g.P[:n])
	for r := 0; r < n; r++ {
		for k := l.P[r]; k < l.P[r+1]; k++ {
			if c := l.I[k]; c < r {
				g.I[next[c]] = r
				next[c]++
			}
		}
	}
	return g
}

// Parallel builds an edge-free DAG of n vertices with the given weights:
// the DAG of a fully parallel loop such as SpMV or DSCAL. The weight slice is
// retained, not copied.
func Parallel(n int, w []int) *Graph {
	return &Graph{N: n, P: make([]int, n+1), W: w}
}

// ParallelCSR builds the edge-free DAG of a fully parallel loop over the
// rows/columns of a CSR-style pointer array: vertex i has weight
// p[i+1]-p[i]+bump, the nonzero count of its row/column plus any fixed
// per-iteration cost. One allocation, replacing the count-and-fill loops the
// SpMV/DSCAL constructors used to carry.
func ParallelCSR(p []int, bump int) *Graph {
	n := len(p) - 1
	w := make([]int, n)
	for i := 0; i < n; i++ {
		w[i] = p[i+1] - p[i] + bump
	}
	return &Graph{N: n, P: make([]int, n+1), W: w}
}

// FromLowerCSC builds the iteration DAG of a kernel whose dependence pattern
// is a lower-triangular factor in CSC form (SpTRSV-CSC, SpIC0): each
// strictly-lower nonzero L[i][j] is a dependency from column j to column i.
// Row indices ascend within a column, so vertex j's successor list is exactly
// the strictly-lower rows of column j, already sorted — the adjacency is
// assembled directly in CSR form with no edge list and no sort, identical to
// routing the edges through FromEdges. The vertex weight is the column
// length.
func FromLowerCSC(l *sparse.CSC) *Graph {
	n := l.Cols
	g := &Graph{N: n, P: make([]int, n+1), W: make([]int, n)}
	for j := 0; j < n; j++ {
		g.W[j] = l.P[j+1] - l.P[j]
		for p := l.P[j]; p < l.P[j+1]; p++ {
			if l.I[p] > j {
				g.P[j+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.P[v+1] += g.P[v]
	}
	g.I = make([]int, g.P[n])
	next := 0
	for j := 0; j < n; j++ {
		for p := l.P[j]; p < l.P[j+1]; p++ {
			if i := l.I[p]; i > j {
				g.I[next] = i
				next++
			}
		}
	}
	return g
}

// Transpose returns the graph with all edges reversed (predecessor lists).
func (g *Graph) Transpose() *Graph {
	// Count vertex v's in-edges into P[v+2]; after the prefix sum P[v+1] is
	// v's first slot, and filling advances it to v's end, which is v+1's
	// first: the pointers finish in place, with no cursor array.
	p := make([]int, g.N+2)
	for _, dst := range g.I {
		p[dst+2]++
	}
	for v := 2; v < len(p); v++ {
		p[v] += p[v-1]
	}
	t := &Graph{N: g.N, P: p[:g.N+1], I: make([]int, len(g.I)), W: g.W}
	for src := 0; src < g.N; src++ {
		for _, dst := range g.Succ(src) {
			t.I[p[dst+1]] = src
			p[dst+1]++
		}
	}
	return t
}

// TopoOrder returns a topological ordering, or an error when the graph has a
// cycle. Kahn's algorithm with a FIFO queue, so independent vertices appear
// in index order. Allocating convenience form of Scratch.TopoOrder, which
// hot paths use to reuse buffers across calls.
func (g *Graph) TopoOrder() ([]int, error) {
	order, err := NewScratch().TopoOrder(g)
	if err != nil {
		return nil, err
	}
	return toInts(order), nil
}

// toInts widens a scratch-backed int32 slice into a fresh []int.
func toInts(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// Levels returns the wavefront number l(v) of every vertex: sources are
// level 0 and l(v) = 1 + max over predecessors. Returns an error on cycles.
// Allocating convenience form of Scratch.Levels.
func (g *Graph) Levels() ([]int, error) {
	lvl, err := NewScratch().Levels(g)
	if err != nil {
		return nil, err
	}
	return toInts(lvl), nil
}

// LevelSets groups vertices by wavefront number; LevelSets()[l] lists the
// vertices of wavefront l in ascending index order.
func (g *Graph) LevelSets() ([][]int, error) {
	lvl, err := g.Levels()
	if err != nil {
		return nil, err
	}
	maxL := -1
	for _, l := range lvl {
		if l > maxL {
			maxL = l
		}
	}
	sets := make([][]int, maxL+1)
	for v, l := range lvl {
		sets[l] = append(sets[l], v)
	}
	return sets, nil
}

// Heights returns height(v), the longest path (in edges) from v to any sink.
// Allocating convenience form of Scratch.Heights.
func (g *Graph) Heights() ([]int, error) {
	h, err := NewScratch().Heights(g)
	if err != nil {
		return nil, err
	}
	return toInts(h), nil
}

// CriticalPath returns the length (in wavefronts, i.e. vertices on the
// longest chain minus one) of the critical path PG.
func (g *Graph) CriticalPath() (int, error) {
	lvl, err := g.Levels()
	if err != nil {
		return 0, err
	}
	maxL := 0
	for _, l := range lvl {
		if l > maxL {
			maxL = l
		}
	}
	return maxL, nil
}

// SlackNumbers returns SN(v) = PG - l(v) - height(v) for every vertex
// (paper section 3.2.2). A vertex with positive slack can be postponed that
// many wavefronts without delaying its dependents. Allocating convenience
// form of Scratch.SlackNumbers.
func (g *Graph) SlackNumbers() ([]int, error) {
	sn, err := NewScratch().SlackNumbers(g)
	if err != nil {
		return nil, err
	}
	return toInts(sn), nil
}

// JointChain builds the joint DAG of a k-kernel chain (paper section 1, k = 2):
// vertex blocks are the loops' iteration spaces laid out in chain order, and
// fs[k] (the dependency matrix between loop k and loop k+1, so len(fs) =
// len(gs)-1) contributes an edge off[k]+j -> off[k+1]+i for every nonzero
// fs[k][i][j]. This is the input of the fused wavefront/LBC/DAGP baselines;
// sparse fusion itself never materializes it.
//
// The adjacency is assembled directly in CSR form by counting — no edge list,
// no sort — and the output is identical to building the graph through
// FromEdges.
func JointChain(gs []*Graph, fs []*sparse.CSR) (*Graph, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("dag: joint chain of zero loops")
	}
	if len(fs) != len(gs)-1 {
		return nil, fmt.Errorf("dag: %d loops with %d dependency matrices, want %d", len(gs), len(fs), len(gs)-1)
	}
	off := make([]int, len(gs)+1)
	for k, gk := range gs {
		off[k+1] = off[k] + gk.N
	}
	for k, f := range fs {
		if f.Rows != gs[k+1].N || f.Cols != gs[k].N {
			return nil, fmt.Errorf("dag: F[%d] is %dx%d, want %dx%d", k, f.Rows, f.Cols, gs[k+1].N, gs[k].N)
		}
	}
	n := off[len(gs)]
	g := &Graph{N: n, P: make([]int, n+1), W: make([]int, n)}
	for k, gk := range gs {
		for v := 0; v < gk.N; v++ {
			g.P[off[k]+v+1] = gk.P[v+1] - gk.P[v]
			g.W[off[k]+v] = gk.Weight(v)
		}
	}
	for k, f := range fs {
		for _, j := range f.I {
			g.P[off[k]+j+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.P[v+1] += g.P[v]
	}
	g.I = make([]int, g.P[n])
	next := make([]int, n)
	copy(next, g.P[:n])
	// Per source vertex: intra-DAG successors first (all inside the source's
	// own block), then F successors (all in the next block, rows ascending) —
	// both ascending, so each list stays sorted without an edge list or sort.
	for k, gk := range gs {
		for v := 0; v < gk.N; v++ {
			for _, s := range gk.Succ(v) {
				g.I[next[off[k]+v]] = off[k] + s
				next[off[k]+v]++
			}
		}
		if k < len(fs) {
			f := fs[k]
			for i := 0; i < f.Rows; i++ {
				for p := f.P[i]; p < f.P[i+1]; p++ {
					j := off[k] + f.I[p]
					g.I[next[j]] = off[k+1] + i
					next[j]++
				}
			}
		}
	}
	return g, nil
}

// Reach returns the set of vertices reachable from the seeds (inclusive),
// as a sorted slice. Allocating convenience form of Scratch.Reach, the
// flat-array CSR BFS that replaced the former map-based search.
func (g *Graph) Reach(seeds []int) []int {
	return toInts(NewScratch().Reach(g, seeds, nil))
}
