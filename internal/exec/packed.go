package exec

import (
	"fmt"
	"slices"
	"time"

	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
)

// This file is the packed executor path: a Runner whose loops have been bound,
// once at inspection time, to packed bodies reading the schedule-order operand
// streams of a relayout.Layout, each dispatch unit from the cursors the layout
// and the program record for its first segments (SegEnt, SegIter). The hot
// loop then reads compact int32 indices and float64 values with a single
// advancing cursor per stream instead of pointer-chasing P[i] into
// matrix-order arrays. The compiled-unpacked path (runW) and the one-thread
// schedule walk are what the packed path is tested against.

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
// program, and every kernel that runs a single-loop segment must support
// packed batch execution; a coalesced span runs its pair's packed body, which
// kernels.FusePair returned with the compiled one. The layout itself stays
// immutable and shareable: the spill slots its scatter loops redirect into
// are allocated here, per runner. On error the runner is left unchanged
// (still running the compiled-unpacked path).
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
	packedRun := make([]kernels.PackedKernel, len(r.ks))
	for l, kn := range r.ks {
		if r.single&(1<<l) == 0 {
			continue
		}
		pk, ok := kn.(kernels.PackedKernel)
		if !ok {
			return fmt.Errorf("exec: kernel %s does not support packed execution", kn.Name())
		}
		packedRun[l] = pk
	}
	r.packedRun, r.spill, r.lay = packedRun, spill, lay
	return nil
}

// Layout returns the attached layout: nil on the compiled-unpacked path,
// non-nil when Run takes the packed path.
func (r *Runner) Layout() *relayout.Layout { return r.lay }

// DetachLayout drops the packed bodies and the layout, returning Run to the
// compiled-unpacked path.
func (r *Runner) DetachLayout() { r.packedRun, r.spill, r.lay = nil, nil, nil }

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
// dispatch per unit.
func (r *Runner) runWPacked(w int) {
	p, lay := r.prog, r.lay
	g, g1 := p.WSeg[w], p.WSeg[w+1]
	next, _ := slices.BinarySearch(r.pairAt, g)
	for g < g1 {
		l := p.SegLoop[g]
		if next < len(r.pairAt) && r.pairAt[next] == g {
			// A coalesced span's loops are those of its first two segments,
			// and each loop's entries are contiguous in its own stream across
			// the whole span (streams are laid out in global segment order
			// and the other loop's entries land in the other stream), so one
			// cursor pair per loop, read from SegEnt and SegIter at the span's
			// first two segments, covers it.
			l2 := p.SegLoop[g+1]
			end := spanEnd(p, g, g1)
			r.pair[int(l)*len(r.ks)+int(l2)].packed(p.Iters[p.SegOff[g]:p.SegOff[end]],
				lay.Streams[l], lay.Streams[l2],
				int(lay.SegEnt[g]), int(p.SegIter[g]), int(lay.SegEnt[g+1]), int(p.SegIter[g+1]))
			g, next = end, next+1
			continue
		}
		r.packedRun[l].RunManyPacked(p.Iters[p.SegOff[g]:p.SegOff[g+1]], lay.Streams[l], int(lay.SegEnt[g]), int(p.SegIter[g]))
		g++
	}
}
