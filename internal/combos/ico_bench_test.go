package combos

import (
	"runtime"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/suite"
)

// churnSpecs are the two ND patterns the inspect-churn workload inspects, at
// the sizes of its power-law units and of its mid-sized Laplacians.
var churnSpecs = []string{"lap3d:20", "pow:8000:6"}

// churnInstances builds all seven combinations over ND spec.
func churnInstances(tb testing.TB, spec string) []*Instance {
	tb.Helper()
	a, err := suite.Parse(spec, true)
	if err != nil {
		tb.Fatal(err)
	}
	var ins []*Instance
	for id := TrsvTrsv; id <= MvMv; id++ {
		in, err := Build(id, a)
		if err != nil {
			tb.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

func churnParams(in *Instance) core.Params {
	return core.Params{Threads: 2, ReuseRatio: in.Reuse, LBC: lbc.Params{}}
}

// BenchmarkICOChurn times the inspector at inspect-churn's shapes: one op is
// one ICO call on each of the seven combinations over the pattern, at
// Threads 2 and the default LBC tuning, as the workload inspects them. It
// reports the per-call time (ico_ms/call), the six InspectorTimings phases
// per call, and B/op and allocs/op per seven calls. Compare two commits by
// alternating their test binaries:
//
//	go test -c -o ico.test ./internal/combos
//	./ico.test -test.run '^$' -test.bench BenchmarkICOChurn -test.benchtime 20x
func BenchmarkICOChurn(b *testing.B) {
	for _, spec := range churnSpecs {
		b.Run(spec, func(b *testing.B) {
			ins := churnInstances(b, spec)
			var sum core.InspectorTimings
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range ins {
					_, tm, err := core.ICOTimed(in.Loops, churnParams(in))
					if err != nil {
						b.Fatal(err)
					}
					sum.Setup += tm.Setup
					sum.Head += tm.Head
					sum.Pairing += tm.Pairing
					sum.Merge += tm.Merge
					sum.Slack += tm.Slack
					sum.Pack += tm.Pack
				}
			}
			calls := float64(b.N * len(ins))
			perCall := func(d time.Duration) float64 { return float64(d) / 1e6 / calls }
			b.ReportMetric(float64(b.Elapsed())/1e6/calls, "ico_ms/call")
			b.ReportMetric(perCall(sum.Setup), "setup_ms/call")
			b.ReportMetric(perCall(sum.Head), "head_ms/call")
			b.ReportMetric(perCall(sum.Pairing), "pairing_ms/call")
			b.ReportMetric(perCall(sum.Merge), "merge_ms/call")
			b.ReportMetric(perCall(sum.Slack), "slack_ms/call")
			b.ReportMetric(perCall(sum.Pack), "pack_ms/call")
		})
	}
}

// TestICOChurnAllocs pins the inspector's allocations per call at
// inspect-churn's shapes: summed over the seven combinations of a pattern,
// at Threads 2 and GOMAXPROCS 2. Workers allocate their packing scratch when
// they first pick up a unit, so a count moves by a few between runs; the
// bounds leave that room and little more.
func TestICOChurnAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bound := map[string]float64{"lap3d:20": 1650, "pow:8000:6": 2600}
	for _, spec := range churnSpecs {
		total := 0.0
		for _, in := range churnInstances(t, spec) {
			total += testing.AllocsPerRun(3, func() {
				if _, err := core.ICO(in.Loops, churnParams(in)); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %.0f allocations over the seven combinations", spec, total)
		if total > bound[spec] {
			t.Errorf("%s: %.0f allocations over the seven combinations, want <= %.0f", spec, total, bound[spec])
		}
	}
}
