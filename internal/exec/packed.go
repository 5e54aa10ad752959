package exec

import (
	"fmt"
	"time"

	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
)

// This file is the packed executor path: a Runner whose dispatch units have
// been bound, once at inspection time, to the schedule-order operand streams
// of a relayout.Layout. The hot loop then reads compact int32 indices and
// float64 values with a single advancing cursor per stream instead of
// pointer-chasing P[i] into matrix-order arrays. The compiled-unpacked path
// (runW) and the one-thread schedule walk are what the packed path is tested
// against.

// packedSeg is one dispatch unit's stream binding: the packed body plus the
// entry/occurrence cursors at which the unit's data starts in each stream.
// Parallel to Runner.segs.
type packedSeg struct {
	pair kernels.PackedPairRunner // fused two-kernel body for shredded spans
	run  kernels.PackedKernel     // single-kernel batch body
	s1   *kernels.PackedStream    // stream of the unit's (first) loop
	s2   *kernels.PackedStream    // stream of the pair's second loop
	ent1 int32                    // first operand-entry slot in s1
	it1  int32                    // first occurrence slot in s1
	ent2 int32                    // first operand-entry slot in s2 (pair only)
	it2  int32                    // first occurrence slot in s2 (pair only)
}

// spillLoop is one scatter loop's share of the packed path: the kernel whose
// packed body writes the slots, the runner-private slot scratch, and the
// layout's fold table for it.
type spillLoop struct {
	k     kernels.SpillScatterer
	slots []float64
	sc    *relayout.Scatter
}

// AttachLayout binds a schedule-order re-layout to the runner and switches
// Run to the packed path. The layout must have been built for this runner's
// program; every kernel must support packed batch execution, and every
// coalesced pair span must have a packed pair specialization. The layout
// itself stays immutable and shareable: the spill slots its scatter loops
// redirect into are allocated here, per runner. On error the runner is left
// unchanged (still running the compiled-unpacked path).
func (r *Runner) AttachLayout(lay *relayout.Layout) error {
	prog := r.prog
	if lay.Program() != prog {
		return fmt.Errorf("exec: layout was built for a different program")
	}
	var spill []spillLoop
	for l, sc := range lay.Scatter {
		if sc == nil {
			continue
		}
		k, ok := r.ks[l].(kernels.SpillScatterer)
		if !ok {
			return fmt.Errorf("exec: layout redirects scatter updates of loop %d but kernel %s has no spill slots", l, r.ks[l].Name())
		}
		spill = append(spill, spillLoop{k: k, slots: make([]float64, sc.Slots), sc: sc})
	}
	packed := make([]packedSeg, len(r.segs))
	for i := range r.segs {
		sg := &r.segs[i]
		g0 := int(sg.g0)
		if sg.pair != nil {
			// A pair span coalesces consecutive program segments alternating
			// between two loops; consecutive segments of one w-partition always
			// differ in loop, so the span's loops are those of its first two
			// segments. Each loop's entries are contiguous in its own stream
			// across the whole span (streams are laid out in global segment
			// order and the other loop's entries land in the other stream), so
			// one cursor pair per loop covers the span.
			l1, l2 := prog.SegLoop[g0], prog.SegLoop[g0+1]
			fn, ok := kernels.FusePackedPair(r.ks[l1], r.ks[l2], int(l1), int(l2))
			if !ok {
				return fmt.Errorf("exec: no packed pair body for %s+%s", r.ks[l1].Name(), r.ks[l2].Name())
			}
			packed[i] = packedSeg{
				pair: fn,
				s1:   lay.Streams[l1],
				s2:   lay.Streams[l2],
				ent1: lay.SegEnt[g0],
				it1:  prog.SegIter[g0],
				ent2: lay.SegEnt[g0+1],
				it2:  prog.SegIter[g0+1],
			}
			continue
		}
		pk, ok := r.ks[sg.loop].(kernels.PackedKernel)
		if !ok {
			return fmt.Errorf("exec: kernel %s does not support packed execution", r.ks[sg.loop].Name())
		}
		packed[i] = packedSeg{
			run:  pk,
			s1:   lay.Streams[sg.loop],
			ent1: lay.SegEnt[g0],
			it1:  prog.SegIter[g0],
		}
	}
	r.packed, r.spill, r.lay = packed, spill, lay
	return nil
}

// Layout returns the attached layout: nil on the compiled-unpacked path,
// non-nil when Run takes the packed path.
func (r *Runner) Layout() *relayout.Layout { return r.lay }

// DetachLayout drops the stream bindings, returning Run to the
// compiled-unpacked path.
func (r *Runner) DetachLayout() { r.packed, r.spill, r.lay = nil, nil, nil }

// bindSpill points every scatter kernel's packed body at this runner's slots.
// Done per run, not per attach: kernels may be shared with another runner
// that bound its own since. A run that ended in a worker fault may have left
// a straggler's partial sums behind, so the first run after one starts from
// zeroed slots.
func (r *Runner) bindSpill() {
	for i := range r.spill {
		sp := &r.spill[i]
		if r.spillDirty {
			clear(sp.slots)
		}
		sp.k.BindSpill(sp.slots)
	}
	r.spillDirty = false
}

// foldSpill adds s-partition s's spill slots into their targets and zeroes
// them, on the calling goroutine between the round's barrier and the next
// round. It returns the time spent, zero (and no clock read) when the
// s-partition redirected nothing.
func (r *Runner) foldSpill(s int) time.Duration {
	var t0 time.Time
	for i := range r.spill {
		sp := &r.spill[i]
		lo, hi := sp.sc.FoldOff[s], sp.sc.FoldOff[s+1]
		if lo == hi {
			continue
		}
		if t0.IsZero() {
			t0 = time.Now()
		}
		sp.k.FoldSpill(sp.sc.FoldTarget[lo:hi])
	}
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// runWPacked executes one w-partition against the packed streams, one
// dispatch per segment.
func (r *Runner) runWPacked(w int) {
	for g := r.wSeg[w]; g < r.wSeg[w+1]; g++ {
		sg := &r.segs[g]
		ps := &r.packed[g]
		iters := r.prog.Iters[sg.lo:sg.hi]
		if ps.pair != nil {
			ps.pair(iters, ps.s1, ps.s2, int(ps.ent1), int(ps.it1), int(ps.ent2), int(ps.it2))
		} else {
			ps.run.RunManyPacked(iters, ps.s1, int(ps.ent1), int(ps.it1))
		}
	}
}
