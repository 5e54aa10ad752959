package locality_test

import (
	"testing"

	"sparsefusion/internal/cachesim"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/locality"
	"sparsefusion/internal/sparse"
)

// fusedSteps inspects in's sparse fusion at the given reuse ratio (which
// selects interleaved or separated packing) and returns its steps read
// through the matrix-order arrays.
func fusedSteps(t *testing.T, in *combos.Instance, reuse float64) []combos.Step {
	t.Helper()
	in.Reuse = reuse
	im := in.SparseFusion(4)
	if err := im.Inspect(); err != nil {
		t.Fatal(err)
	}
	s := im.Steps()[0]
	return []combos.Step{{Kernels: s.Kernels, Runner: exec.NewRunner(s.Kernels, s.Runner.Program())}}
}

func TestInterleavedPackingImprovesReuseDistance(t *testing.T) {
	// The locality claim behind figure 6, in machine-independent form: for
	// TRSV-TRSV (reuse ratio >= 1, shared factor L), interleaved packing
	// yields a smaller mean reuse distance than separated packing.
	a := sparse.Must(sparse.Laplacian2D(48))
	in, err := combos.Build(combos.TrsvTrsv, a)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(reuse float64) locality.Profile {
		p, err := cachesim.Profile(fusedSteps(t, in, reuse), 64)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	inter := mk(1.5)
	sep := mk(0.5)
	if inter.MeanDistance() >= sep.MeanDistance() {
		t.Fatalf("interleaved mean distance %.0f not below separated %.0f",
			inter.MeanDistance(), sep.MeanDistance())
	}
}

// stubKernel satisfies kernels.Kernel without implementing Tracer.
type stubKernel struct{ kernels.Kernel }

func (stubKernel) Name() string { return "stub" }

func TestMeasureFusedRejectsUntraceable(t *testing.T) {
	in, err := combos.Build(combos.TrsvTrsv, sparse.Must(sparse.Laplacian2D(8)))
	if err != nil {
		t.Fatal(err)
	}
	steps := fusedSteps(t, in, in.Reuse)
	steps[0].Kernels = []kernels.Kernel{stubKernel{}, in.Kernels[1]}
	if _, err := cachesim.Profile(steps, 64); err == nil {
		t.Fatal("untraceable kernel accepted")
	}
}
