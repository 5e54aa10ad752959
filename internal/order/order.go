// Package order provides the parallelism-exposing symmetric reordering applied
// before scheduling. The paper reorders every matrix with METIS "to improve
// thread parallelism" (section 4.1); this package substitutes METIS with a
// recursive pseudo-nested-dissection ordering built from BFS level-structure
// separators. It operates on the symmetrized pattern of a square sparse
// matrix and returns a permutation in the sparse.PermuteSym convention
// (perm[new] = old).
package order

import (
	"fmt"
	"math"

	"sparsefusion/internal/sparse"
)

// mergeRow writes the ascending union of the ascending lists x and y, without
// the vertex r itself, to dst and returns its length; a nil dst only counts.
func mergeRow(dst []int32, x, y []int, r int) int {
	n := 0
	for i, j := 0, 0; i < len(x) || j < len(y); {
		var v int
		switch {
		case j == len(y) || (i < len(x) && x[i] < y[j]):
			v = x[i]
			i++
		case i == len(x) || y[j] < x[i]:
			v = y[j]
			j++
		default:
			v = x[i]
			i++
			j++
		}
		if v != r {
			if dst != nil {
				dst[n] = int32(v)
			}
			n++
		}
	}
	return n
}

// adjacency returns the symmetrized pattern of a without self loops as a flat
// graph: the neighbours of v are adj[ptr[v]:ptr[v+1]], ascending. Rows of a
// and of its transpose are sorted (the sparse package's invariant), so each
// neighbour list is a merge, counted first so that adj is allocated exactly.
// A symmetric pattern is its own transpose: its rows, less the diagonal, are
// the lists, and no transpose is built.
func adjacency(a *sparse.CSR) (ptr []int, adj []int32) {
	n := a.Rows
	ptr = make([]int, n+1)
	var t *sparse.CSR
	if !a.Symmetric(ptr[1:], false) { // ptr[1:] is the check's scratch until counted
		t = (&sparse.CSR{Rows: n, Cols: n, P: a.P, I: a.I}).Transpose() // pattern only: no value copy
	}
	rows := func(r int) (x, y []int) {
		x = a.I[a.P[r]:a.P[r+1]]
		if t != nil {
			y = t.I[t.P[r]:t.P[r+1]]
		}
		return x, y
	}
	for r := 0; r < n; r++ {
		x, y := rows(r)
		ptr[r+1] = ptr[r] + mergeRow(nil, x, y, r)
	}
	adj = make([]int32, ptr[n])
	for r := 0; r < n; r++ {
		x, y := rows(r)
		mergeRow(adj[ptr[r]:ptr[r+1]], x, y, r)
	}
	return ptr, adj
}

// NestedDissection returns a recursive pseudo-nested-dissection permutation:
// each part is split by a level of the BFS level structure rooted at its
// first vertex; the two halves are ordered recursively and the separator is
// numbered last, which is the property direct and incomplete factorizations
// benefit from. Parts of at most leafSize vertices (64 is a reasonable
// default) and parts whose level structure has fewer than three levels keep
// the order they arrived in.
func NestedDissection(a *sparse.CSR, leafSize int) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("order: nested dissection needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n > math.MaxInt32/2 {
		return nil, fmt.Errorf("order: nested dissection of %d vertices exceeds the int32 adjacency", n)
	}
	if leafSize < 1 {
		leafSize = 64
	}
	d := dissector{
		leaf:  leafSize,
		state: make([]int32, n),
		queue: make([]int, n),
		off:   make([]int, 0, n+1),
	}
	d.ptr, d.adj = adjacency(a)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	d.dissect(perm)
	return perm, nil
}

// dissector carries the graph and the scratch every recursion level reuses,
// so a dissection allocates a fixed number of arrays whatever its depth.
type dissector struct {
	ptr  []int
	adj  []int32
	leaf int
	// state[v] == id marks v as an unvisited member of the part numbered id,
	// -id as a visited one; ids are handed out per dissect call, at most 2n.
	state []int32
	id    int32
	queue []int // BFS order of the current part, then its unreached vertices
	off   []int // level l of that BFS is queue[off[l]:off[l+1]]
}

// dissect reorders part, a sub-slice of the permutation, in place into
// left | right | separator and recurses into the first two.
func (d *dissector) dissect(part []int) {
	if len(part) <= d.leaf {
		return
	}
	d.id++
	id := d.id
	for _, v := range part {
		d.state[v] = id
	}
	// BFS level structure from part[0], restricted to the part.
	q, off := d.queue, append(d.off[:0], 0)
	q[0] = part[0]
	d.state[part[0]] = -id
	cnt := 1 // vertices in q
	for lo := 0; lo < cnt; {
		hi := cnt
		off = append(off, hi)
		for _, v := range q[lo:hi] {
			for _, w := range d.adj[d.ptr[v]:d.ptr[v+1]] {
				if d.state[w] == id {
					d.state[w] = -id
					q[cnt] = int(w)
					cnt++
				}
			}
		}
		lo = hi
	}
	levels := len(off) - 1
	if levels < 3 {
		return
	}
	// Separator = the interior level whose removal splits the part closest
	// to half its weight, small separators preferred. Vertices the BFS did
	// not reach (other components of the part) count as above it.
	mid, midScore := 0, math.MaxInt
	for l := 1; l < levels-1; l++ {
		below, above := off[l], len(part)-off[l+1]
		if score := abs(below-above) + 4*(off[l+1]-off[l]); score < midScore {
			mid, midScore = l, score
		}
	}
	// left = levels below the separator, then the unreached vertices in part
	// order; right = levels above it. Both are non-empty: 1 <= mid <= levels-2.
	end := cnt
	for _, v := range part {
		if d.state[v] == id {
			q[end] = v
			end++
		}
	}
	nl := copy(part, q[:off[mid]])
	nl += copy(part[nl:], q[cnt:end])
	nr := copy(part[nl:], q[off[mid+1]:cnt])
	copy(part[nl+nr:], q[off[mid]:off[mid+1]])
	d.dissect(part[:nl])
	d.dissect(part[nl : nl+nr])
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
