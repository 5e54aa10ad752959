// Package core implements the paper's primary contribution: sparse fusion's
// inspector — the inter-kernel dependency matrix F, the reuse-ratio metric,
// and the Iteration Composition and Ordering (ICO) runtime scheduling
// algorithm (paper section 3) — together with the fused-schedule data
// structure its executor consumes.
package core

import (
	"fmt"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// Iter identifies one iteration of one fused loop: iteration Idx of the
// Loop-th kernel (0-based, in program order).
type Iter struct {
	Loop, Idx int
}

// Schedule is ICO's output: the fused partitioning V (paper section 3.1).
// S-partitions execute sequentially with one barrier each; the w-partitions
// of an s-partition execute in parallel, each as one sequential list of
// iterations from any of the fused loops.
type Schedule struct {
	S [][][]Iter
	// Interleaved records the packing variant chosen from the reuse ratio
	// (true: interleaved, reuse >= 1; false: separated).
	Interleaved bool
	// ReuseRatio is the inspector's locality metric (paper section 2.2).
	ReuseRatio float64
}

// NumSPartitions returns the number of barriers.
func (s *Schedule) NumSPartitions() int { return len(s.S) }

// NumIterations returns the total number of scheduled iterations.
func (s *Schedule) NumIterations() int {
	n := 0
	for _, sp := range s.S {
		for _, w := range sp {
			n += len(w)
		}
	}
	return n
}

// MaxWidth returns the maximum number of w-partitions in any s-partition.
func (s *Schedule) MaxWidth() int {
	m := 0
	for _, sp := range s.S {
		if len(sp) > m {
			m = len(sp)
		}
	}
	return m
}

// Loops is the fusion input: one dependency DAG per loop plus the inter-loop
// dependency matrices. F[k] holds the dependencies from loop k to loop k+1:
// a nonzero F[k][i][j] means iteration j of loop k must execute before
// iteration i of loop k+1 (the paper's dependency matrix, section 2.2).
type Loops struct {
	G []*dag.Graph
	F []*sparse.CSR
}

// Check validates shapes: len(F) == len(G)-1 and each F[k] is
// G[k+1].N x G[k].N.
func (l *Loops) Check() error {
	if len(l.G) < 1 {
		return fmt.Errorf("core: no loops")
	}
	if len(l.F) != len(l.G)-1 {
		return fmt.Errorf("core: %d loops need %d inter-DAG matrices, got %d", len(l.G), len(l.G)-1, len(l.F))
	}
	for k, f := range l.F {
		if f.Rows != l.G[k+1].N || f.Cols != l.G[k].N {
			return fmt.Errorf("core: F[%d] is %dx%d, want %dx%d", k, f.Rows, f.Cols, l.G[k+1].N, l.G[k].N)
		}
	}
	return nil
}

// TotalIterations sums the loop trip counts.
func (l *Loops) TotalIterations() int {
	n := 0
	for _, g := range l.G {
		n += g.N
	}
	return n
}

// Validate checks that sched is a correct parallel schedule of the fused
// loops: every iteration appears exactly once and every dependency —
// intra-DAG edges of each loop and every F nonzero — is satisfied by an
// earlier s-partition or by sequential order within one w-partition.
func (l *Loops) Validate(sched *Schedule) error {
	if err := l.Check(); err != nil {
		return err
	}
	type pos struct{ s, w, k int }
	where := make([]map[int]pos, len(l.G))
	for i := range where {
		where[i] = make(map[int]pos, l.G[i].N)
	}
	for si, sp := range sched.S {
		for wi, w := range sp {
			for ki, it := range w {
				if it.Loop < 0 || it.Loop >= len(l.G) || it.Idx < 0 || it.Idx >= l.G[it.Loop].N {
					return fmt.Errorf("core: iteration %+v out of range", it)
				}
				if _, dup := where[it.Loop][it.Idx]; dup {
					return fmt.Errorf("core: iteration %+v scheduled twice", it)
				}
				where[it.Loop][it.Idx] = pos{si, wi, ki}
			}
		}
	}
	for k, g := range l.G {
		if len(where[k]) != g.N {
			return fmt.Errorf("core: loop %d has %d of %d iterations scheduled", k, len(where[k]), g.N)
		}
	}
	check := func(u, v Iter) error {
		pu, pv := where[u.Loop][u.Idx], where[v.Loop][v.Idx]
		if pu.s < pv.s || (pu.s == pv.s && pu.w == pv.w && pu.k < pv.k) {
			return nil
		}
		return fmt.Errorf("core: dependency %+v -> %+v violated (s%d/w%d/k%d vs s%d/w%d/k%d)",
			u, v, pu.s, pu.w, pu.k, pv.s, pv.w, pv.k)
	}
	for k, g := range l.G {
		for u := 0; u < g.N; u++ {
			for _, v := range g.Succ(u) {
				if err := check(Iter{k, u}, Iter{k, v}); err != nil {
					return err
				}
			}
		}
	}
	for k, f := range l.F {
		for i := 0; i < f.Rows; i++ {
			for p := f.P[i]; p < f.P[i+1]; p++ {
				if err := check(Iter{k, f.I[p]}, Iter{k + 1, i}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SPartitionStats describes one s-partition for diagnostics and tooling.
type SPartitionStats struct {
	Widths int   // number of w-partitions
	Iters  int   // iterations in the s-partition
	Costs  []int // per-w-partition weight (requires the loops for weights)
}

// Stats summarizes the schedule shape against its loops: per s-partition
// width, iteration count and weight distribution — what cmd/spfuse -dump
// prints and what the balance tests assert on.
func (s *Schedule) Stats(l *Loops) []SPartitionStats {
	out := make([]SPartitionStats, len(s.S))
	for si, sp := range s.S {
		st := SPartitionStats{Widths: len(sp), Costs: make([]int, len(sp))}
		for wi, w := range sp {
			st.Iters += len(w)
			for _, it := range w {
				st.Costs[wi] += l.G[it.Loop].Weight(it.Idx)
			}
		}
		out[si] = st
	}
	return out
}
