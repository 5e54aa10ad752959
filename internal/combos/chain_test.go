package combos

import (
	"strings"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// trsvChainSpec builds a k-solve chain x1 = L\b, ..., xk = L\x(k-1) with
// diagonal adjacency Fs, returning the spec and a snapshot of all outputs.
func trsvChainSpec(t *testing.T, n, k int) (ChainSpec, func() []float64, func()) {
	t.Helper()
	a := sparse.Must(sparse.RandomSPD(n, 5, 9))
	l := a.Lower()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%11)
	}
	spec := ChainSpec{Name: "trsv-chain"}
	in := b
	var outs [][]float64
	for j := 0; j < k; j++ {
		out := make([]float64, n)
		var f *sparse.CSR
		if j > 0 {
			f = core.FDiagonal(n)
		}
		spec.Links = append(spec.Links, ChainLink{K: kernels.NewSpTRSVCSR(l, in, out), F: f})
		outs = append(outs, out)
		in = out
	}
	snap := func() []float64 {
		var s []float64
		for _, o := range outs {
			s = append(s, o...)
		}
		return s
	}
	reset := func() {
		for _, o := range outs {
			for i := range o {
				o[i] = 0
			}
		}
	}
	return spec, snap, reset
}

func TestBuildChainValidation(t *testing.T) {
	if _, err := BuildChain(ChainSpec{Name: "empty"}); err == nil {
		t.Fatal("empty chain accepted")
	}
	spec, _, _ := trsvChainSpec(t, 50, 2)
	spec.Links[0].F = core.FDiagonal(50)
	if _, err := BuildChain(spec); err == nil {
		t.Fatal("leading dependency matrix accepted")
	}
	spec2, _, _ := trsvChainSpec(t, 50, 3)
	spec2.Links[2].F = nil
	if _, err := BuildChain(spec2); err == nil {
		t.Fatal("missing dependency matrix accepted")
	}
}

func TestBuildChainGroupingPolicies(t *testing.T) {
	spec, _, _ := trsvChainSpec(t, 80, 4)

	whole, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !whole.Fused() || whole.NumKernels() != 4 {
		t.Fatalf("unbounded spec composed into %d groups", len(whole.Groups))
	}
	if g := whole.Groups[0]; len(g.Kernels) != 4 || len(g.Loops.G) != 4 || len(g.Loops.F) != 3 {
		t.Fatalf("group shape: %d kernels, %d DAGs, %d Fs", len(g.Kernels), len(g.Loops.G), len(g.Loops.F))
	}

	spec.MaxGroup = 2
	pairwise, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairwise.Groups) != 2 {
		t.Fatalf("MaxGroup=2 produced %d groups, want 2", len(pairwise.Groups))
	}
	for _, g := range pairwise.Groups {
		if len(g.Kernels) != 2 || len(g.Loops.F) != 1 {
			t.Fatalf("pairwise group has %d kernels, %d Fs", len(g.Kernels), len(g.Loops.F))
		}
	}

	spec.MaxGroup = 1
	unfused, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(unfused.Groups) != 4 {
		t.Fatalf("MaxGroup=1 produced %d groups, want 4", len(unfused.Groups))
	}
	if len(unfused.PairReuse) != 3 {
		t.Fatalf("%d pair reuse ratios, want 3", len(unfused.PairReuse))
	}
}

func TestChainKernelIDsOrdered(t *testing.T) {
	spec, _, _ := trsvChainSpec(t, 40, 3)
	c, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.KernelIDs()
	if len(ids) != 3 {
		t.Fatalf("%d ids, want 3", len(ids))
	}
	for _, id := range ids {
		if !strings.Contains(id, "TRSV") {
			t.Fatalf("unexpected kernel id %q", id)
		}
	}
}

// TestChainFusedMatchesSequential: the composed chain (k = 3..5, and k = 20,
// which no single schedule can tag and MaxGroup 0 must therefore split), run
// through Chain.SparseFusion at several thread counts, reproduces the
// sequential reference bit for bit, and the fully-composed chain synchronizes
// no more than the pairwise split of the same kernels.
func TestChainFusedMatchesSequential(t *testing.T) {
	for _, k := range []int{3, 4, 5, 20} {
		spec, snap, reset := trsvChainSpec(t, 200, k)
		c, err := BuildChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := (k + kernels.MaxLoops - 1) / kernels.MaxLoops; len(c.Groups) != want {
			t.Fatalf("k=%d composed into %d groups, want %d", k, len(c.Groups), want)
		}
		for _, g := range c.Groups {
			if len(g.Kernels) > kernels.MaxLoops {
				t.Fatalf("k=%d: a group of %d loops, more than one schedule can tag", k, len(g.Kernels))
			}
		}
		reset()
		if err := c.RunSequential(); err != nil {
			t.Fatal(err)
		}
		want := snap()

		for _, threads := range []int{1, 2, 4, 8} {
			im := c.SparseFusion(threads)
			if err := im.Inspect(); err != nil {
				t.Fatalf("k=%d threads=%d inspect: %v", k, threads, err)
			}
			reset()
			if _, err := im.Execute(); err != nil {
				t.Fatalf("k=%d threads=%d execute: %v", k, threads, err)
			}
			got := snap()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d threads=%d: element %d = %x, reference %x", k, threads, i, got[i], want[i])
				}
			}
			if b := sPartitions(im); b <= 0 {
				t.Fatalf("k=%d: non-positive barrier count %d", k, b)
			}
		}

		// The pairwise composition of the same chain pays at least as many
		// barrier sequences.
		spec.MaxGroup = 2
		pw, err := BuildChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		imF := c.SparseFusion(4)
		if err := imF.Inspect(); err != nil {
			t.Fatal(err)
		}
		imP := pw.SparseFusion(4)
		if err := imP.Inspect(); err != nil {
			t.Fatal(err)
		}
		if fb, pb := sPartitions(imF), sPartitions(imP); fb > pb {
			t.Fatalf("k=%d: composed chain uses %d barriers, pairwise %d", k, fb, pb)
		}
	}
}

// TestJointChainOracle: the joint DAG of a composed chain must contain every
// intra-loop edge and every F edge, offset per loop — checked on a small
// hand-verifiable chain.
func TestJointChainOracle(t *testing.T) {
	spec, _, _ := trsvChainSpec(t, 30, 3)
	c, err := BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Groups[0]
	j, err := g.JointGraph()
	if err != nil {
		t.Fatal(err)
	}
	var wantN, wantE int
	for _, lg := range g.Loops.G {
		wantN += lg.N
		wantE += lg.NumEdges()
	}
	for _, f := range g.Loops.F {
		wantE += f.NNZ()
	}
	if j.N != wantN {
		t.Fatalf("joint graph has %d vertices, want %d", j.N, wantN)
	}
	if j.NumEdges() != wantE {
		t.Fatalf("joint graph has %d edges, want %d", j.NumEdges(), wantE)
	}
}
