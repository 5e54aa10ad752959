package cachesim

import (
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/locality"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/suite"
	"sparsefusion/internal/wavefront"
)

// This file keeps a copy of the per-shape replays the step walker replaced —
// one per schedule shape, each re-encoding the executor's slot rule and the
// joint-vertex split — as the oracle the walker is checked against.

// shapeReplay is what the per-shape replays shared: one access sink per
// thread slot.
type shapeReplay struct {
	slots []func(uintptr)
}

// trace replays iteration i of k reading the matrix-order arrays.
func trace(k kernels.Kernel, i int, emit func(uintptr)) {
	k.(kernels.Tracer).Trace(i, kernels.MatrixView(k, i), emit)
}

// fused replays a fused schedule: w-partition w of every s-partition on slot w.
func (r shapeReplay) fused(ks []kernels.Kernel, sched *core.Schedule) {
	for _, sp := range sched.S {
		for w, part := range sp {
			for _, it := range part {
				trace(ks[it.Loop], it.Idx, r.slots[w])
			}
		}
	}
}

// chain replays kernels back to back under their own partitionings (nil:
// sequential on slot 0), w-partition w on slot w % width.
func (r shapeReplay) chain(ks []kernels.Kernel, ps []*partition.Partitioning) {
	for i, k := range ks {
		if ps[i] == nil {
			for it := 0; it < k.Iterations(); it++ {
				trace(k, it, r.slots[0])
			}
			continue
		}
		for _, sp := range ps[i].S {
			for w, part := range sp {
				for _, v := range part {
					trace(k, v, r.slots[w%len(r.slots)])
				}
			}
		}
	}
}

// joint replays a joint-DAG partitioning of two kernels: vertices below n1
// are loop-0 iterations.
func (r shapeReplay) joint(k1, k2 kernels.Kernel, p *partition.Partitioning) {
	n1 := k1.Iterations()
	for _, sp := range p.S {
		for w, part := range sp {
			for _, v := range part {
				if v < n1 {
					trace(k1, v, r.slots[w%len(r.slots)])
				} else {
					trace(k2, v-n1, r.slots[w%len(r.slots)])
				}
			}
		}
	}
}

// simulated runs replay against width fresh hierarchies over a shared LLC.
func simulated(width int, replay func(shapeReplay)) Result {
	cfg := Default()
	llc := newCache(cfg.LLCSize, cfg.LLCAssoc, cfg.LineSize)
	var r shapeReplay
	var ths []*thread
	for w := 0; w < width; w++ {
		ths = append(ths, newThread(&cfg, llc))
		r.slots = append(r.slots, ths[w].access)
	}
	replay(r)
	var res Result
	for _, t := range ths {
		res.Accesses += t.accesses
		res.Cycles += t.cycles
	}
	return res
}

// profiled runs replay against width fresh analyzers and sums their profiles.
func profiled(width int, replay func(shapeReplay)) locality.Profile {
	var r shapeReplay
	var ans []*locality.Analyzer
	for w := 0; w < width; w++ {
		ans = append(ans, locality.NewAnalyzer(64))
		r.slots = append(r.slots, ans[w].Access)
	}
	replay(r)
	var total locality.Profile
	for _, an := range ans {
		p := an.Profile()
		for b, c := range p.Buckets {
			total.Buckets[b] += c
		}
		total.Cold += p.Cold
		total.Accesses += p.Accesses
	}
	return total
}

// TestWalkerMatchesShapeReplays: on nested-dissection-ordered fixtures (the
// Laplacian Figure 6's test runs on, and a power-law pattern), replaying an
// implementation's steps gives the same simulated Result and the same
// reuse-distance Profile as the per-shape replay of the partitioning it was
// compiled from — unfused ParSy, unfused MKL (whose factorizations are
// sequential steps), joint LBC, and the fused schedule read unpacked. All in
// one process and on one instance per combination: the simulated cache sets
// depend on where the arrays live. The power-law fixture runs the two pure
// combinations only: its factorizations trace 15–31 million accesses each.
func TestWalkerMatchesShapeReplays(t *testing.T) {
	lp := lbc.DefaultParams()
	for _, fx := range []struct {
		spec string
		ids  []combos.ID
	}{
		{"lap2d:40", combos.All},
		{"pow:4000:6", []combos.ID{combos.TrsvTrsv, combos.TrsvMv}},
	} {
		a, err := suite.Parse(fx.spec, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range []int{2, 4} {
			for _, id := range fx.ids {
				in, err := combos.Build(id, a)
				if err != nil {
					t.Fatal(err)
				}
				ks := in.Kernels
				var parsy, mkl []*partition.Partitioning
				for _, k := range ks {
					p, err := lbc.Schedule(k.DAG(), th, lp)
					if err != nil {
						t.Fatal(err)
					}
					parsy = append(parsy, p)
					switch k.(type) {
					case *kernels.SpIC0CSC, *kernels.SpILU0CSR:
						mkl = append(mkl, nil) // MKL's factorizations are sequential
						continue
					}
					if p, err = wavefront.Schedule(k.DAG(), th); err != nil {
						t.Fatal(err)
					}
					mkl = append(mkl, p)
				}
				joint, err := in.JointGraph()
				if err != nil {
					t.Fatal(err)
				}
				jp, err := lbc.ScheduleChordal(joint, th, lp)
				if err != nil {
					t.Fatal(err)
				}
				sched, err := core.ICO(in.Loops, core.Params{Threads: th, ReuseRatio: in.Reuse, LBC: lp})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					steps  []combos.Step
					width  int
					replay func(shapeReplay)
				}{
					{inspected(t, in.UnfusedParSy(th, lp)), th, func(r shapeReplay) { r.chain(ks, parsy) }},
					{inspected(t, in.UnfusedMKL(th)), th, func(r shapeReplay) { r.chain(ks, mkl) }},
					{inspected(t, in.JointLBC(th)), th, func(r shapeReplay) { r.joint(ks[0], ks[1], jp) }},
					{unpacked(inspected(t, in.SparseFusion(th))), max(1, sched.MaxWidth()), func(r shapeReplay) { r.fused(ks, sched) }},
				} {
					name := fx.spec + "/" + in.Name
					got, err := Simulate(c.steps, Default())
					if err != nil {
						t.Fatal(err)
					}
					if want := simulated(c.width, c.replay); got != want {
						t.Errorf("%s threads %d: Simulate %+v, shape replay %+v", name, th, got, want)
					}
					prof, err := Profile(c.steps, 64)
					if err != nil {
						t.Fatal(err)
					}
					if want := profiled(c.width, c.replay); prof != want {
						t.Errorf("%s threads %d: Profile differs from the shape replay's", name, th)
					}
				}
			}
		}
	}
}
