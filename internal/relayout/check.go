package relayout

import (
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// CheckExclusive verifies a layout's no-atomics contract independently of the
// analysis that produced it: it re-derives, from the program and the source
// matrices alone, which w-partitions write each scatter target in each
// s-partition, then walks the packed streams and the fold tables against that
// ground truth. It fails when a target two w-partitions of one s-partition
// write is updated directly, when a slot is written by two w-partitions or
// stands for two targets, when a redirected update's slot folds into another
// target, when a fold entry has no writer, or when the fold entries of an
// s-partition are not grouped in ascending w-partition order (the order that
// makes the folded sums reproducible). ks must be the kernels the layout was
// built from.
func CheckExclusive(prog *core.Program, lay *Layout, ks []kernels.Kernel) error {
	if len(lay.Scatter) != prog.NumLoops {
		return fmt.Errorf("relayout: %d scatter records for %d loops", len(lay.Scatter), prog.NumLoops)
	}
	for l := 0; l < prog.NumLoops; l++ {
		rows, skip, ok := scatterSource(ks[l])
		if !ok {
			if lay.Scatter[l] != nil {
				return fmt.Errorf("relayout: loop %d (%s) does not scatter but has a fold table", l, ks[l].Name())
			}
			continue
		}
		sc := lay.Scatter[l]
		if sc == nil {
			return fmt.Errorf("relayout: scatter loop %d (%s) was not analyzed", l, ks[l].Name())
		}
		if err := checkLoop(prog, lay, l, sc, rows, skip); err != nil {
			return fmt.Errorf("relayout: loop %d (%s): %w", l, ks[l].Name(), err)
		}
	}
	return nil
}

// scatterSource returns, for the scatter kernels, a function listing the
// targets iteration j updates, read from the source matrix (not the stream),
// and how many leading stream entries per occurrence are not updates.
func scatterSource(k kernels.Kernel) (rows func(j int) []int, skip int, ok bool) {
	switch k := k.(type) {
	case *kernels.SpMVCSC:
		return func(j int) []int { return k.A.I[k.A.P[j]:k.A.P[j+1]] }, 0, true
	case *kernels.SpTRSVCSC:
		return func(j int) []int { return k.L.I[k.L.P[j]+1 : k.L.P[j+1]] }, 1, true
	}
	return nil, 0, false
}

func checkLoop(prog *core.Program, lay *Layout, l int, sc *Scatter, rows func(j int) []int, skip int) error {
	st := lay.Streams[l]
	if got, want := len(sc.FoldOff), prog.NumSPartitions()+1; got != want {
		return fmt.Errorf("FoldOff has %d entries, want %d", got, want)
	}
	entries, redirected, slots := 0, 0, 0
	for s := 0; s < prog.NumSPartitions(); s++ {
		// Ground truth: the set of w-partitions writing each target in s.
		writers := map[int]map[int]bool{}
		for w := int(prog.SOff[s]); w < int(prog.SOff[s+1]); w++ {
			for _, v := range prog.Iters[prog.WOff[w]:prog.WOff[w+1]] {
				if loop, j := kernels.UnpackIter(v); loop == l {
					for _, t := range rows(j) {
						if writers[t] == nil {
							writers[t] = map[int]bool{}
						}
						writers[t][w] = true
					}
				}
			}
		}

		f0, f1 := int(sc.FoldOff[s]), int(sc.FoldOff[s+1])
		if f0 > f1 || f1 > len(sc.FoldTarget) {
			return fmt.Errorf("s-partition %d: fold range [%d,%d) outside the %d-entry table", s, f0, f1, len(sc.FoldTarget))
		}
		if f1-f0 > slots {
			slots = f1 - f0
		}
		slotW := make([]int, f1-f0) // writer of each slot; -1 none yet
		for i := range slotW {
			slotW[i] = -1
		}
		for w := int(prog.SOff[s]); w < int(prog.SOff[s+1]); w++ {
			for g := int(prog.WSeg[w]); g < int(prog.WSeg[w+1]); g++ {
				if int(prog.SegLoop[g]) != l {
					continue
				}
				ent, it := int(lay.SegEnt[g]), int(prog.SegIter[g])
				for _, v := range prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]] {
					j := int(v & kernels.IterMask)
					src := rows(j)
					n := int(st.Len[it])
					if n-skip != len(src) {
						return fmt.Errorf("iteration %d packs %d updates, source has %d", j, n-skip, len(src))
					}
					for c, x := range st.Idx[ent+skip : ent+n] {
						t := src[c]
						entries++
						if x >= 0 {
							if int(x) != t {
								return fmt.Errorf("iteration %d update %d targets %d, source says %d", j, c, x, t)
							}
							if len(writers[t]) > 1 {
								return fmt.Errorf("s-partition %d: target %d has %d writers but w-partition %d updates it directly", s, t, len(writers[t]), w)
							}
							continue
						}
						redirected++
						slot := int(^x)
						if slot >= f1-f0 {
							return fmt.Errorf("s-partition %d: slot %d outside its %d fold entries", s, slot, f1-f0)
						}
						if ft := int(sc.FoldTarget[f0+slot]); ft != t {
							return fmt.Errorf("s-partition %d: update of target %d redirected to slot %d, which folds into %d", s, t, slot, ft)
						}
						if slotW[slot] >= 0 && slotW[slot] != w {
							return fmt.Errorf("s-partition %d: slot %d written by w-partitions %d and %d", s, slot, slotW[slot], w)
						}
						slotW[slot] = w
					}
					ent += n
					it++
				}
			}
		}
		seen := map[[2]int]bool{} // (w-partition, target) pairs holding a slot
		for i, w := range slotW {
			if w < 0 {
				return fmt.Errorf("s-partition %d: fold entry %d has no writer", s, i)
			}
			if i > 0 && w < slotW[i-1] {
				return fmt.Errorf("s-partition %d: fold entry %d (w-partition %d) follows w-partition %d", s, i, w, slotW[i-1])
			}
			key := [2]int{w, int(sc.FoldTarget[f0+i])}
			if seen[key] {
				return fmt.Errorf("s-partition %d: w-partition %d holds two slots for target %d", s, w, key[1])
			}
			seen[key] = true
		}
	}
	if int(sc.FoldOff[prog.NumSPartitions()]) != len(sc.FoldTarget) {
		return fmt.Errorf("fold table has %d entries, FoldOff ends at %d", len(sc.FoldTarget), sc.FoldOff[prog.NumSPartitions()])
	}
	if entries != sc.Entries || redirected != sc.Redirected || slots != sc.Slots {
		return fmt.Errorf("reports %d entries / %d redirected / %d slots, streams hold %d / %d / %d",
			sc.Entries, sc.Redirected, sc.Slots, entries, redirected, slots)
	}
	return nil
}
