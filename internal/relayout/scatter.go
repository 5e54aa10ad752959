package relayout

import (
	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// This file is the writer-exclusivity analysis of the scatter loops (SpMV-CSC,
// SpTRSV-CSC). Their iterations accumulate into entries of a shared vector,
// which the paper's kernels protect with atomics (figure 2a). A compiled
// program fixes which w-partition performs every update, so the question
// "can two goroutines update this entry at once" is decidable here, once, and
// the answer is one more inspector-chosen code variant in the sense of the
// paper's figure 3: w-partitions of different s-partitions are ordered by the
// barrier, so only a target written by two w-partitions of one s-partition
// can ever be contended. Every update to such a target is rewritten, in the
// stream itself, to accumulate into a slot private to its (s-partition,
// w-partition, target); everything else keeps a plain +=. The executor adds
// an s-partition's slots into their targets after its barrier, on one
// goroutine and in a fixed order, so for a fixed layout every sum associates
// the same way on every run, at every pool width.

// Scatter is the analysis result for one scatter loop: the counts it reports
// and the fold table the executor replays between rounds.
type Scatter struct {
	// Entries counts the loop's scatter updates per run; Redirected how many
	// of them were rewritten to a slot.
	Entries, Redirected int
	// Slots is the scratch a runner must provide: the largest number of fold
	// entries any one s-partition has. Slots are folded and zeroed before the
	// next round starts, so all s-partitions share the same ones.
	Slots int
	// FoldTarget[FoldOff[s]:FoldOff[s+1]] are the fold entries of s-partition
	// s: after its barrier, slot i (relative to FoldOff[s]) is added into
	// target FoldTarget[FoldOff[s]+i] and zeroed, for ascending i. Entries
	// are grouped by w-partition in ascending order, so the partial sums of
	// one target always fold lowest w-partition first.
	FoldTarget []int32
	FoldOff    []int32
}

// redirectShared analyzes scatter loop l of a filled layout and rewrites the
// updates of shared targets in place. Per s-partition it makes two passes over
// the loop's entries with two stamp arrays, both indexed by target: mark names
// the single w-partition (global id, so stamps of earlier s-partitions are
// recognizably stale) that has written the target so far, or flags it shared;
// slot holds the target's newest fold entry, which belongs to the w-partition
// being rewritten exactly when it lies past that w-partition's first one.
// Everything is a function of the program and the stream order, so equal
// programs give byte-equal results.
func redirectShared(prog *core.Program, lay *Layout, l int, k kernels.SpillScatterer) *Scatter {
	targets, skip := k.ScatterShape()
	st := lay.Streams[l]
	nS := prog.NumSPartitions()
	sc := &Scatter{
		Entries: len(st.Idx) - skip*len(st.Len),
		FoldOff: make([]int32, nS+1),
	}
	mark := make([]int32, targets) // 0 stale, w+1 sole writer w, -(s+1) shared in s
	slot := make([]int32, targets) // 1 + newest fold entry of the target
	for s := 0; s < nS; s++ {
		w0, w1 := int(prog.SOff[s]), int(prog.SOff[s+1])
		shared := int32(-(s + 1))
		nShared := 0
		// Pass 1 finds the shared targets; a width-1 s-partition has none.
		for w := w0; w < w1 && w1-w0 > 1; w++ {
			cur := int32(w + 1)
			forScatterRuns(prog, lay, l, skip, w, func(idx []int32) {
				for _, t := range idx {
					switch m := mark[t]; {
					case m == cur || m == shared:
					case m > int32(w0):
						mark[t] = shared
						nShared++
					default:
						mark[t] = cur
					}
				}
			})
		}
		// Pass 2 gives every (w-partition, shared target) its slot, in first-use
		// order, and rewrites the updates.
		for w := w0; w < w1 && nShared > 0; w++ {
			wFold0 := int32(len(sc.FoldTarget))
			forScatterRuns(prog, lay, l, skip, w, func(idx []int32) {
				for c, t := range idx {
					if mark[t] != shared {
						continue
					}
					f := slot[t] - 1
					if f < wFold0 {
						f = int32(len(sc.FoldTarget))
						sc.FoldTarget = append(sc.FoldTarget, t)
						slot[t] = f + 1
					}
					idx[c] = ^(f - sc.FoldOff[s])
					sc.Redirected++
				}
			})
		}
		sc.FoldOff[s+1] = int32(len(sc.FoldTarget))
		if n := int(sc.FoldOff[s+1] - sc.FoldOff[s]); n > sc.Slots {
			sc.Slots = n
		}
	}
	return sc
}

// forScatterRuns calls fn with the scatter-update index run of every
// occurrence of loop l in w-partition w, in execution order: the occurrence's
// stream entries minus the skip leading non-scatter ones.
func forScatterRuns(prog *core.Program, lay *Layout, l, skip, w int, fn func(idx []int32)) {
	st := lay.Streams[l]
	for g := int(prog.WSeg[w]); g < int(prog.WSeg[w+1]); g++ {
		if int(prog.SegLoop[g]) != l {
			continue
		}
		ent := int(lay.SegEnt[g])
		o0 := int(prog.SegIter[g])
		for _, n := range st.Len[o0 : o0+int(prog.SegOff[g+1]-prog.SegOff[g])] {
			if int(n) > skip {
				fn(st.Idx[ent+skip : ent+int(n)])
			}
			ent += int(n)
		}
	}
}
