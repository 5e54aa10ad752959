package combos

import (
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// BuildChain generalizes BuildGS from the fixed sweep chain to an arbitrary
// k-kernel chain: the caller lists the kernels in program order with one
// dependency matrix per adjacent pair, and the builder composes them into
// fused groups of at most MaxGroup kernels. A group becomes
// one Instance — one ICO inspection, one fused schedule, one barrier per
// s-partition spanning every loop in the group — so a fully-composed chain
// pays k× fewer barrier sequences than pairwise fusion, and MaxGroup = 2
// reproduces the pairwise solver exactly (the comparison baseline).

// ChainLink is one kernel of a chain plus the dependency matrix F from the
// previous kernel's iteration space to its own (F[i][j] != 0 when iteration
// i of this kernel reads what iteration j of the previous one wrote). The
// first link's F must be nil.
type ChainLink struct {
	K kernels.Kernel
	F *sparse.CSR
}

// ChainSpec describes a chain and its composition policy.
type ChainSpec struct {
	Name  string
	Links []ChainLink
	// MaxGroup caps the kernels per fused group; 0 composes as much of the
	// chain as one schedule can tag (kernels.MaxLoops loops, cut there too),
	// 2 reproduces pairwise fusion, 1 disables fusion.
	MaxGroup int
}

// Chain is a composed chain: consecutive fused groups, each an Instance
// ready for inspection, plus the reuse ratio of every adjacency.
type Chain struct {
	Spec   ChainSpec
	Groups []*Instance
	// PairReuse[i] is ReuseRatio(Links[i].K, Links[i+1].K).
	PairReuse []float64
}

// BuildChain composes the chain per the spec's size policy.
func BuildChain(spec ChainSpec) (*Chain, error) {
	if len(spec.Links) == 0 {
		return nil, fmt.Errorf("combos: chain %q has no links", spec.Name)
	}
	if spec.Links[0].F != nil {
		return nil, fmt.Errorf("combos: chain %q: first link carries a dependency matrix", spec.Name)
	}
	for i := 1; i < len(spec.Links); i++ {
		if spec.Links[i].F == nil {
			return nil, fmt.Errorf("combos: chain %q: link %d has no dependency matrix", spec.Name, i)
		}
	}
	c := &Chain{Spec: spec, PairReuse: make([]float64, len(spec.Links)-1)}
	for i := 0; i+1 < len(spec.Links); i++ {
		c.PairReuse[i] = core.ReuseRatio(spec.Links[i].K, spec.Links[i+1].K)
	}
	lo := 0
	for i := 1; i <= len(spec.Links); i++ {
		cut := i == len(spec.Links) || i-lo >= kernels.MaxLoops ||
			(spec.MaxGroup > 0 && i-lo >= spec.MaxGroup)
		if !cut {
			continue
		}
		ks := make([]kernels.Kernel, 0, i-lo)
		fs := make([]*sparse.CSR, 0, i-lo-1)
		for _, ln := range spec.Links[lo:i] {
			ks = append(ks, ln.K)
			if len(ks) > 1 {
				fs = append(fs, ln.F)
			}
		}
		g := &Instance{
			Name:    fmt.Sprintf("%s[%d:%d]", spec.Name, lo, i),
			Kernels: ks,
			Loops:   &core.Loops{F: fs},
			Reuse:   core.ReuseRatioChain(ks),
		}
		for _, k := range ks {
			g.Loops.G = append(g.Loops.G, k.DAG())
		}
		if err := g.Loops.Check(); err != nil {
			return nil, fmt.Errorf("combos: chain %q group [%d:%d): %w", spec.Name, lo, i, err)
		}
		c.Groups = append(c.Groups, g)
		lo = i
	}
	return c, nil
}

// Fused reports whether the whole chain composed into a single fused group.
func (c *Chain) Fused() bool { return len(c.Groups) == 1 }

// NumKernels is the chain length k.
func (c *Chain) NumKernels() int { return len(c.Spec.Links) }

// KernelIDs returns the ordered kernel names — the chain identity the cache
// fingerprints content-address by.
func (c *Chain) KernelIDs() []string {
	ids := make([]string, len(c.Spec.Links))
	for i, ln := range c.Spec.Links {
		ids[i] = ln.K.Name()
	}
	return ids
}

// SparseFusion inspects every group as Instance.SparseFusion does, one step
// per group; execution runs the groups back to back (Stats.Barriers is the
// barriers one pass over the chain pays: each group's s-partitions).
func (c *Chain) SparseFusion(threads int) *Impl {
	return &Impl{Name: "sparse-fusion-chain", threads: threads, inspect: func() ([]Step, error) {
		steps := make([]Step, len(c.Groups))
		for i, g := range c.Groups {
			var err error
			if steps[i], err = g.fuse(threads); err != nil {
				return nil, err
			}
		}
		return steps, nil
	}}
}

// RunSequential executes every kernel of the chain back to back,
// single-threaded — the bit-identity reference for all fused executions.
func (c *Chain) RunSequential() error {
	for _, g := range c.Groups {
		for _, k := range g.Kernels {
			if err := kernels.RunSeq(k); err != nil {
				return err
			}
		}
	}
	return nil
}
