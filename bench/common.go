package main

import (
	"bytes"
	"fmt"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// setupReps is how often a workload repeats its set-up; setup_s is the median.
// The two workloads whose set-up takes about a second or less repeat it more
// often.
const (
	setupReps      = 3
	setupRepsShort = 5
)

// opSchedule reads back the schedule an Operation executes, through the
// facade's own SaveSchedule.
func opSchedule(op *sf.Operation) (*core.Schedule, error) {
	var buf bytes.Buffer
	if err := op.SaveSchedule(&buf); err != nil {
		return nil, err
	}
	_, s, err := cache.ReadScheduleFile(&buf)
	return s, err
}

// meanWidth is the iteration-weighted mean width of a schedule.
func meanWidth(s *core.Schedule) float64 {
	parts := make([]core.SPartitionStats, len(s.S))
	for i, sp := range s.S {
		parts[i].Widths = len(sp)
		for _, w := range sp {
			parts[i].Iters += len(w)
		}
	}
	return scheduleShape(parts).MeanWidth
}

// guardWidth rejects a fixture whose schedule is narrower than share of what
// two workers (or the one there is) could use.
func guardWidth(name string, width, share float64, threads int) error {
	need := 1 + share*float64(min(2, threads)-1)
	return guard(width >= need, "%s: iteration-weighted mean width %.3f < %.2f: the schedule is serial, the executor would not be measured", name, width, need)
}

// guardPacked rejects an operation that is not on the packed rung or that was
// demoted on the way.
func guardPacked(name string, h sf.Health) error {
	return guard(h.Mode == sf.ModePacked && len(h.Demotions) == 0, "%s: mode %s with %d demotions, want packed with none", name, h.Mode, len(h.Demotions))
}

// bases runs the two comparison implementations of one combination over one
// matrix: the unfused one (LBC per kernel, kernels back to back, the paper's
// ParSy baseline) and the plain single-threaded one.
type bases struct {
	inst *combos.Instance
	unf  *combos.Impl
}

func newBases(c sf.Combination, a *sparse.CSR, threads int) (*bases, error) {
	inst, err := combos.Build(combos.ID(c), a)
	if err != nil {
		return nil, err
	}
	b := &bases{inst: inst, unf: inst.UnfusedParSy(threads, lbc.Params{})}
	if err := b.unf.Inspect(); err != nil {
		return nil, fmt.Errorf("unfused inspection: %w", err)
	}
	return b, nil
}

// setInput overwrites the instance's input vector, when it has one.
func (b *bases) setInput(in []float64) {
	copy(b.inst.Input, in)
}

func (b *bases) unfusedMS() (float64, error) {
	t0 := time.Now()
	_, err := b.unf.Execute()
	return ms(time.Since(t0)), err
}

func (b *bases) seqMS() (float64, error) {
	d, err := b.inst.RunSequential()
	return ms(d), err
}

// verify runs both bases once on input in and checks them against want.
func (b *bases) verify(in, want []float64) error {
	b.setInput(in)
	if _, err := b.unfusedMS(); err != nil {
		return err
	}
	if err := checkVector("unfused base", b.inst.Snapshot(), want); err != nil {
		return err
	}
	if _, err := b.seqMS(); err != nil {
		return err
	}
	return checkVector("sequential base", b.inst.Snapshot(), want)
}
