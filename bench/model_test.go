package main

import (
	"testing"

	"sparsefusion/internal/core"
)

// A hand-built schedule of three s-partitions: a balanced pair, a serial
// bulk, and four w-partitions with one straggler.
func TestScheduleShape(t *testing.T) {
	sh := scheduleShape([]core.SPartitionStats{
		{Widths: 2, Iters: 10, Costs: []int{6, 4}},
		{Widths: 1, Iters: 30, Costs: []int{30}},
		{Widths: 4, Iters: 20, Costs: []int{5, 5, 7, 3}},
	})
	if sh.SPartitions != 3 || sh.Iterations != 60 {
		t.Errorf("shape = %+v", sh)
	}
	if sh.Work != 60 || sh.Span != 6+30+7 {
		t.Errorf("work/span = %d/%d, want 60/43", sh.Work, sh.Span)
	}
	if !near(sh.MeanWidth, (2*10+1*30+4*20)/60.0) {
		t.Errorf("mean width = %v", sh.MeanWidth)
	}
	if !near(sh.ModelSpeedup(), 60.0/43.0) {
		t.Errorf("model speedup = %v", sh.ModelSpeedup())
	}
	// 60 cost units take 6 ms sequentially, so the 43 on the critical path
	// take 4.3 ms; three barriers of 1000 ns add 0.003 ms.
	if got := modelRunMS(sh, 6, 3, 1000); !near(got, 4.303) {
		t.Errorf("model run = %v ms, want 4.303", got)
	}
	if got := scheduleShape(nil); got.ModelSpeedup() != 0 || got.MeanWidth != 0 {
		t.Errorf("empty schedule = %+v", got)
	}
}

func TestMeanWidthOfSchedule(t *testing.T) {
	it := func(n int) []core.Iter { return make([]core.Iter, n) }
	s := &core.Schedule{S: [][][]core.Iter{
		{it(5), it(5)}, // width 2, 10 iterations
		{it(30)},       // width 1, 30 iterations
	}}
	if got := meanWidth(s); !near(got, (2*10+1*30)/40.0) {
		t.Errorf("mean width = %v, want 1.25", got)
	}
	if err := guardWidth("t", 1.25, 0.25, 2); err != nil {
		t.Errorf("width 1.25 rejected at share 0.25: %v", err)
	}
	if err := guardWidth("t", 1.25, 0.5, 2); err == nil {
		t.Error("width 1.25 accepted at share 0.5")
	}
	if err := guardWidth("t", 1, 0.5, 1); err != nil {
		t.Errorf("one thread must accept width 1: %v", err)
	}
}
