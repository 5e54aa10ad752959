package combos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/suite"
)

// cgInstance builds the CG (precond false) or PCG chain over ND spec in blocks
// of block, as one fused group.
func cgInstance(t *testing.T, spec string, precond bool, block int) *Instance {
	t.Helper()
	a, err := suite.Parse(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := CGChain(a, NewCGVectors(a.Rows, block, precond), precond, block)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := BuildChain(cs)
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Fused() {
		t.Fatalf("%s: chain did not compose into one group", cs.Name)
	}
	return chain.Groups[0]
}

// inspectCG runs ICO over a CG chain instance at width threads and checks the
// schedule against its loops.
func inspectCG(t *testing.T, in *Instance, threads int) *core.Schedule {
	t.Helper()
	sched, err := core.ICO(in.Loops, core.Params{Threads: threads, ReuseRatio: in.Reuse, LBC: lbc.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Loops.Validate(sched); err != nil {
		t.Fatalf("%s: %v", in.Name, err)
	}
	return sched
}

// goldenCGUncut are the SHA-256 of Schedule.Bytes of the CG chains where no
// link is cut: one thread, and one block per vector (n <= block, so every
// dense F is 1x1).
var goldenCGUncut = map[string]string{
	"lap2d:100/cg/threads=1":  "dec6050913cdecfb89f15c9c4f98e3e14097c42f0a4387478aec5f444637d8cf",
	"lap2d:100/pcg/threads=1": "e4b4496e3d75d2b84267f171fc6555a52ee5d7e50874c480d9e8c7e9e492da17",
	"lap2d:20/cg/threads=2":   "4ca390dcaefffa799d60b24e9d976321d68bb820f2d82d91f3ca368e38bbc9c2",
	"lap2d:20/cg/threads=4":   "13fac89fd438115b649f867f46d352984123063ba963ba9bcd5612f0d351b241",
	"lap2d:20/pcg/threads=2":  "88b7add9cbbbffb8a2213380117125dd2d0fd25bc3c41da579be558d8e3c20bd",
	"lap2d:20/pcg/threads=4":  "c0c6246cb50bd082e4d8c32922c46800de87ffed1fc51eaa358d9863816f1c90",
}

// TestCGChainUncutSchedules pins the CG and PCG chains' schedules where ICO
// has nothing to cut: at Threads 1 on ND lap2d:100 in blocks of 512, and at
// Threads 2 and 4 on ND lap2d:20 (n = 400 <= 512, one block).
func TestCGChainUncutSchedules(t *testing.T) {
	got := map[string]string{}
	for name, precond := range map[string]bool{"cg": false, "pcg": true} {
		for _, c := range []struct {
			spec    string
			threads int
		}{{"lap2d:100", 1}, {"lap2d:20", 2}, {"lap2d:20", 4}} {
			in := cgInstance(t, c.spec, precond, CGBlock)
			sum := sha256.Sum256(inspectCG(t, in, c.threads).Bytes())
			got[fmt.Sprintf("%s/%s/threads=%d", c.spec, name, c.threads)] = hex.EncodeToString(sum[:])
		}
	}
	for key, sum := range got {
		if want, ok := goldenCGUncut[key]; !ok || sum != want {
			t.Errorf("%s: schedule %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenCGUncut {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden schedule no longer built", key)
		}
	}
}

// TestCGChainsCutStayWide inspects the CG and PCG chains on ND lap2d:100 in
// blocks of 512 at two threads. ICO cuts each at its all-to-all reductions,
// so no straggler partial deferred past the first barrier pulls the rest of
// the chain into one w-partition: the model speed-up (work over the sum of
// each s-partition's heaviest w-partition) reaches 1.8, and no s-partition
// after the first runs at width 1 with more than a tenth of the work.
func TestCGChainsCutStayWide(t *testing.T) {
	for name, precond := range map[string]bool{"cg": false, "pcg": true} {
		in := cgInstance(t, "lap2d:100", precond, CGBlock)
		stats := inspectCG(t, in, 2).Stats(in.Loops)
		work, span := 0, 0
		for _, st := range stats {
			for _, c := range st.Costs {
				work += c
			}
			span += slices.Max(st.Costs)
		}
		if m := float64(work) / float64(span); m < 1.8 {
			t.Errorf("%s: model speed-up %.3f, want >= 1.8", name, m)
		}
		for si, st := range stats[1:] {
			if st.Widths == 1 && 10*st.Costs[0] > work {
				t.Errorf("%s: s%d runs %d of %d work at width 1", name, si+1, st.Costs[0], work)
			}
		}
	}
}
