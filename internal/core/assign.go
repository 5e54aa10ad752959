package core

import "sort"

// This file seeds the work-stealing executor: a deterministic LPT
// (longest-processing-time-first) assignment of every s-partition's
// w-partitions onto a fixed set of worker slots. The executor uses the
// assignment two ways. As *affinity*: the seed is held constant across runs of
// one Program, so a w-partition's operand lines stay in the cache of the
// worker that ran it last time. As *deque seed*: each worker's queue lists its
// w-partitions heaviest-first, so the owner pops the big units early and
// thieves — which take from the tail — carry off the small ones, keeping the
// stolen work (and the cache lines it drags across cores) as cheap as the
// imbalance allows.

// Assignment maps every w-partition of a Program to a worker slot, grouped
// into per-(s-partition, slot) queues in steal order.
type Assignment struct {
	// Workers is the slot count the assignment was seeded for.
	Workers int
	// IDs holds global w-partition ids grouped per (s-partition, slot),
	// heaviest first within each group.
	IDs []int32
	// Off indexes IDs: the queue of slot q in s-partition s is
	// IDs[Off[s*Workers+q]:Off[s*Workers+q+1]]. len(Off) is
	// NumSPartitions*Workers+1.
	Off []int32
}

// Queue returns slot q's seeded w-partition ids for s-partition s.
func (a *Assignment) Queue(s, q int) []int32 {
	i := s*a.Workers + q
	return a.IDs[a.Off[i]:a.Off[i+1]]
}

// AssignProgram seeds an LPT assignment of p's w-partitions onto workers
// slots. weight(w) orders and balances the w-partitions; nil selects the
// iteration count, the same proxy LBC balances on. Within each s-partition
// only min(workers, width) slots receive work, so a round never wakes slots
// that could only ever steal. The result is deterministic: ties in weight
// break toward the lower w-partition id, ties in slot load toward the lower
// slot, so one Program and weight function always seed the same assignment
// (the affinity contract).
func AssignProgram(p *Program, workers int, weight func(w int) int64) *Assignment {
	if workers < 1 {
		workers = 1
	}
	if weight == nil {
		weight = func(w int) int64 { return int64(p.WOff[w+1] - p.WOff[w]) }
	}
	nS := p.NumSPartitions()
	nW := p.NumWPartitions()
	a := &Assignment{
		Workers: workers,
		IDs:     make([]int32, 0, nW),
		Off:     make([]int32, nS*workers+1),
	}
	// Scratch reused across s-partitions: the sorted id list and the per-slot
	// queues of the current s-partition.
	var ids []int32
	queues := make([][]int32, workers)
	load := make([]int64, workers)
	for s := 0; s < nS; s++ {
		w0, w1 := int(p.SOff[s]), int(p.SOff[s+1])
		width := w1 - w0
		slots := workers
		if width < slots {
			slots = width
		}
		ids = ids[:0]
		for w := w0; w < w1; w++ {
			ids = append(ids, int32(w))
		}
		sort.Slice(ids, func(i, j int) bool {
			wi, wj := weight(int(ids[i])), weight(int(ids[j]))
			if wi != wj {
				return wi > wj
			}
			return ids[i] < ids[j]
		})
		for q := 0; q < slots; q++ {
			queues[q] = queues[q][:0]
			load[q] = 0
		}
		for _, w := range ids {
			best := 0
			for q := 1; q < slots; q++ {
				if load[q] < load[best] {
					best = q
				}
			}
			queues[best] = append(queues[best], w)
			load[best] += weight(int(w))
		}
		for q := 0; q < workers; q++ {
			if q < slots {
				a.IDs = append(a.IDs, queues[q]...)
			}
			a.Off[s*workers+q+1] = int32(len(a.IDs))
		}
	}
	return a
}
