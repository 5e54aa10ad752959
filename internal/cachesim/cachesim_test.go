package cachesim

import (
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/sparse"
)

func TestCacheBasics(t *testing.T) {
	c := newCache(1024, 2, 64) // 8 sets x 2 ways
	if c.access(0) {
		t.Fatal("cold access hit")
	}
	if !c.access(0) {
		t.Fatal("warm access missed")
	}
	if !c.access(8) { // same 64-byte line
		t.Fatal("same-line access missed")
	}
	if c.access(64) {
		t.Fatal("next line hit cold")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(128, 2, 64) // 1 set, 2 ways
	c.access(0)
	c.access(64)
	c.access(128) // evicts line 0
	if c.access(0) {
		t.Fatal("evicted line still resident")
	}
	// Line 64 was second-most-recent before 128; accessing 0 evicted 64.
	if c.access(128) == false {
		t.Fatal("most recent line evicted")
	}
}

func TestSequentialScanLatency(t *testing.T) {
	cfg := Default()
	th := newThread(&cfg, newCache(cfg.LLCSize, cfg.LLCAssoc, cfg.LineSize))
	// Scan 64 KiB twice: first pass misses L1 every 8 words, second pass
	// fits in... 64 KiB exceeds the 32 KiB L1, so both passes miss per line.
	for pass := 0; pass < 2; pass++ {
		for a := uintptr(0); a < 64<<10; a += 8 {
			th.access(a)
		}
	}
	avg := th.cycles / float64(th.accesses)
	// 1/8 of accesses miss L1 (hit LLC after pass 1), the rest are L1 hits:
	// avg should sit well below the LLC latency but above L1.
	if avg <= cfg.L1Lat || avg >= cfg.LLCLat {
		t.Fatalf("avg latency %.1f outside (%v, %v)", avg, cfg.L1Lat, cfg.LLCLat)
	}
}

func TestRepeatedSmallWorkingSetApproachesL1(t *testing.T) {
	cfg := Default()
	th := newThread(&cfg, newCache(cfg.LLCSize, cfg.LLCAssoc, cfg.LineSize))
	for pass := 0; pass < 50; pass++ {
		for a := uintptr(0); a < 8<<10; a += 8 {
			th.access(a)
		}
	}
	avg := th.cycles / float64(th.accesses)
	if avg > cfg.L1Lat*1.2 {
		t.Fatalf("hot working set latency %.2f, want near %v", avg, cfg.L1Lat)
	}
}

// unpacked returns steps with every runner replaced by an unpacked one over
// the same program: the schedule read through the matrix-order arrays.
func unpacked(steps []combos.Step) []combos.Step {
	out := make([]combos.Step, len(steps))
	for i, s := range steps {
		out[i] = s
		if s.Runner != nil {
			out[i].Runner = exec.NewRunner(s.Kernels, s.Runner.Program())
		}
	}
	return out
}

// inspected returns im's steps after a successful Inspect.
func inspected(t *testing.T, im *combos.Impl) []combos.Step {
	t.Helper()
	if err := im.Inspect(); err != nil {
		t.Fatalf("%s: %v", im.Name, err)
	}
	return im.Steps()
}

func TestMeasureFusedVsUnfusedLocality(t *testing.T) {
	// The figure 6 claim: for a combination with reuse >= 1 (TRSV-TRSV
	// sharing L), the fused interleaved schedule has lower average memory
	// latency than the unfused kernel-at-a-time execution, because the
	// second kernel re-reads L while it is still resident.
	a := sparse.Must(sparse.Laplacian2D(60)) // 3600 rows; L exceeds L1, fits LLC
	in, err := combos.Build(combos.TrsvTrsv, a)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Simulate(unpacked(inspected(t, in.SparseFusion(4))), Default())
	if err != nil {
		t.Fatal(err)
	}
	// Unfused: each kernel wavefront-scheduled, run back to back.
	unfused, err := Simulate(inspected(t, in.UnfusedMKL(4)), Default())
	if err != nil {
		t.Fatal(err)
	}
	if fused.AvgLatency() >= unfused.AvgLatency() {
		t.Fatalf("fused latency %.2f not below unfused %.2f",
			fused.AvgLatency(), unfused.AvgLatency())
	}
}

func TestMeasureJointRuns(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(300, 5, 3))
	in, err := combos.Build(combos.TrsvMv, a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(inspected(t, in.JointWavefront(4)), Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses == 0 || r.AvgLatency() < Default().L1Lat {
		t.Fatalf("implausible joint measurement %+v", r)
	}
}
