// Package partition defines the schedule shape shared by every scheduler in
// this repository: a list of s-partitions executed sequentially (one barrier
// after each), each holding w-partitions that run in parallel on different
// threads, each w-partition being an ordered list of vertices executed
// sequentially by one thread. This is exactly the output shape of LBC in
// ParSy and of the ICO algorithm (paper section 3.1).
package partition

import (
	"fmt"

	"sparsefusion/internal/dag"
)

// Partitioning is a two-level schedule: S[s][w] is the ordered vertex list of
// w-partition w inside s-partition s.
type Partitioning struct {
	S [][][]int
}

// NumSPartitions returns the number of barriers (s-partitions).
func (p *Partitioning) NumSPartitions() int { return len(p.S) }

// NumVertices returns the total number of scheduled vertices.
func (p *Partitioning) NumVertices() int {
	n := 0
	for _, s := range p.S {
		for _, w := range s {
			n += len(w)
		}
	}
	return n
}

// MaxWidth returns the maximum number of w-partitions in any s-partition.
func (p *Partitioning) MaxWidth() int {
	m := 0
	for _, s := range p.S {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// Compact removes empty w-partitions and empty s-partitions in place and
// returns the receiver.
func (p *Partitioning) Compact() *Partitioning {
	outS := p.S[:0]
	for _, s := range p.S {
		outW := s[:0]
		for _, w := range s {
			if len(w) > 0 {
				outW = append(outW, w)
			}
		}
		if len(outW) > 0 {
			outS = append(outS, outW)
		}
	}
	p.S = outS
	return p
}

// Position locates every vertex: pos[v] = (s, w, index-within-w).
type Position struct{ S, W, K int }

// Positions returns the position of every vertex 0..n-1, or an error when a
// vertex is missing or scheduled twice.
func (p *Partitioning) Positions(n int) ([]Position, error) {
	pos := make([]Position, n)
	seen := make([]bool, n)
	for si, s := range p.S {
		for wi, w := range s {
			for ki, v := range w {
				if v < 0 || v >= n {
					return nil, fmt.Errorf("partition: vertex %d out of range n=%d", v, n)
				}
				if seen[v] {
					return nil, fmt.Errorf("partition: vertex %d scheduled twice", v)
				}
				seen[v] = true
				pos[v] = Position{si, wi, ki}
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("partition: vertex %d not scheduled", v)
		}
	}
	return pos, nil
}

// Validate checks that the partitioning is a correct parallel schedule of g:
// it covers every vertex exactly once and every edge u->v is satisfied either
// by an earlier s-partition or by sequential order within one w-partition.
func (p *Partitioning) Validate(g *dag.Graph) error {
	pos, err := p.Positions(g.N)
	if err != nil {
		return err
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Succ(u) {
			pu, pv := pos[u], pos[v]
			ok := pu.S < pv.S || (pu.S == pv.S && pu.W == pv.W && pu.K < pv.K)
			if !ok {
				return fmt.Errorf("partition: edge %d->%d violated (%v vs %v)", u, v, pu, pv)
			}
		}
	}
	return nil
}

// Cost returns the total weight of one w-partition under g's vertex weights.
func Cost(g *dag.Graph, w []int) int {
	c := 0
	for _, v := range w {
		c += g.Weight(v)
	}
	return c
}

// Imbalance returns the average over s-partitions of
// (max w-partition cost - mean w-partition cost) / mean, the load-imbalance
// proxy used in the potential-gain model. Width is the number of threads r:
// s-partitions with fewer w-partitions than r are padded with zero-cost slots
// because the remaining threads idle at the barrier.
func (p *Partitioning) Imbalance(g *dag.Graph, r int) float64 {
	if len(p.S) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range p.S {
		maxC, sum := 0, 0
		for _, w := range s {
			c := Cost(g, w)
			sum += c
			if c > maxC {
				maxC = c
			}
		}
		width := r
		if width < len(s) {
			width = len(s)
		}
		mean := float64(sum) / float64(width)
		if mean > 0 {
			total += (float64(maxC) - mean) / mean
		}
	}
	return total / float64(len(p.S))
}

// WaitWork returns the total "potential gain" work units: for each
// s-partition, r*max(cost) - sum(cost), i.e. the thread-time spent waiting at
// the barrier, divided by r (VTune's potential-gain definition, paper fig 6).
func (p *Partitioning) WaitWork(g *dag.Graph, r int) float64 {
	total := 0.0
	for _, s := range p.S {
		maxC, sum := 0, 0
		for _, w := range s {
			c := Cost(g, w)
			sum += c
			if c > maxC {
				maxC = c
			}
		}
		total += float64(r*maxC - sum)
	}
	return total / float64(r)
}
