package relayout

import (
	"fmt"
	"sync"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// BuildFirstTouch constructs the same packed layout as Build, but each stream
// page is written — and therefore, under a first-touch NUMA policy, placed —
// by the worker that will consume it at execution time. Build fills the
// streams on one goroutine, so on a multi-socket machine every page of every
// stream lands on the building thread's node and half the executor's stream
// bandwidth crosses the interconnect. Here asn.Workers goroutines — one per
// executor slot of the work-stealing assignment — fill exactly the
// w-partitions their slot owns, through the same disjoint windows of the
// preallocated arrays Build fills serially.
//
// The result is byte-identical to Build's: the same AppendStream bodies write
// the same entries at the same offsets, only the writing goroutine differs,
// and the scatter analysis runs once on the filled streams either way.
// Steals at execution time move a w-partition off its seeded slot, so the
// placement is best-effort by construction — exactly as warm caches are.
func BuildFirstTouch(prog *core.Program, ks []kernels.Kernel, asn *core.Assignment) (*Layout, error) {
	if asn == nil {
		return nil, fmt.Errorf("relayout: first-touch build needs a worker assignment")
	}
	if got, want := len(asn.Owner), prog.NumWPartitions(); got != want {
		return nil, fmt.Errorf("relayout: assignment covers %d w-partitions, program has %d", got, want)
	}
	return build(prog, ks, asn)
}

// fillByOwner runs the fill pass with one goroutine per assignment slot, each
// packing the w-partitions it owns.
func fillByOwner(prog *core.Program, packers []kernels.StreamPacker, lay *Layout, segN []int32, asn *core.Assignment) error {
	errs := make([]error, asn.Workers)
	var wg sync.WaitGroup
	wg.Add(asn.Workers)
	for q := 0; q < asn.Workers; q++ {
		go func(q int) {
			defer wg.Done()
			for s := 0; s < prog.NumSPartitions(); s++ {
				for _, w := range asn.Queue(s, q) {
					if err := fillWPartition(prog, packers, lay, segN, int(w)); err != nil {
						errs[q] = err
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
