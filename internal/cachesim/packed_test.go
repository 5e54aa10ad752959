package cachesim

import (
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// TestMeasurePackedImprovesLocality validates the packed executor's whole
// reason to exist: on working sets that exceed L1, replaying the steps the
// sparse-fusion Impl executes — its schedule against the schedule-order
// re-layout — must produce both a lower average memory latency and fewer
// total cycles than the matrix-order replay of that schedule, in both
// packing modes. The re-layout wins by streaming Idx/Val
// sequentially in execution order with half-width indices; the matrix-order
// replay pays for pointer-chasing P[i] into arrays laid out in a different
// order than the schedule visits them.
func TestMeasurePackedImprovesLocality(t *testing.T) {
	a := sparse.Must(sparse.Laplacian2D(100)) // 10000 rows; operands exceed L1, fit LLC
	for _, tc := range []struct {
		name  string
		id    combos.ID
		reuse float64
	}{
		{"trsv-mv/separated", combos.TrsvMv, 0.2},
		{"trsv-mv/interleaved", combos.TrsvMv, 1.5},
		{"trsv-trsv/interleaved", combos.TrsvTrsv, 1.5},
	} {
		in, err := combos.Build(tc.id, a)
		if err != nil {
			t.Fatal(err)
		}
		in.Reuse = tc.reuse // selects the packing mode the case names
		steps := inspected(t, in.SparseFusion(4))
		if steps[0].Runner.Layout() == nil {
			t.Fatalf("%s: the sparse-fusion runner is not packed", tc.name)
		}
		fused, err := Simulate(unpacked(steps), Default())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		packed, err := Simulate(steps, Default())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The packed replay touches MORE locations (the Len stream is extra
		// traffic), so winning on latency and cycles is a genuine locality
		// improvement, not an artifact of fewer accesses.
		if packed.Accesses <= fused.Accesses {
			t.Fatalf("%s: packed accesses %d not above fused %d (Len stream missing?)",
				tc.name, packed.Accesses, fused.Accesses)
		}
		if packed.AvgLatency() >= fused.AvgLatency() {
			t.Fatalf("%s: packed avg latency %.2f not below matrix-order %.2f",
				tc.name, packed.AvgLatency(), fused.AvgLatency())
		}
		if packed.Cycles >= fused.Cycles {
			t.Fatalf("%s: packed total cycles %.0f not below matrix-order %.0f",
				tc.name, packed.Cycles, fused.Cycles)
		}
	}
}

// TestMeasurePackedRejectsUntraceableKernel mirrors the relayout guard:
// factor kernels have no packed streams to trace.
func TestMeasurePackedRejectsUntraceableKernel(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(200, 5, 3))
	in, err := combos.Build(combos.TrsvMv, a)
	if err != nil {
		t.Fatal(err)
	}
	steps := inspected(t, in.SparseFusion(4))
	ic0 := kernels.NewSpIC0CSC(a.Lower().ToCSC())
	steps[0].Kernels = []kernels.Kernel{ic0, in.Kernels[1]}
	if _, err := Simulate(steps, Default()); err == nil {
		t.Fatal("a packed step with a kernel without packed tracing was replayed")
	}
}
