package exec

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllParts(t *testing.T) {
	pl := newPool(4, 0)
	defer pl.close()
	var count int64
	durs := make([]time.Duration, 4)
	for round := 0; round < 100; round++ {
		pl.run(4, func(w int) { atomic.AddInt64(&count, 1) }, durs)
	}
	if count != 400 {
		t.Fatalf("ran %d of 400 parts", count)
	}
	for w, d := range durs {
		if d < 0 {
			t.Fatalf("negative duration for part %d", w)
		}
	}
}

func TestPoolPartialWidth(t *testing.T) {
	pl := newPool(8, 0)
	defer pl.close()
	durs := make([]time.Duration, 8)
	seen := make([]int64, 8)
	for _, parts := range []int{1, 3, 8, 2} {
		pl.run(parts, func(w int) { atomic.AddInt64(&seen[w], 1) }, durs[:parts])
	}
	if seen[0] != 4 || seen[2] != 2 || seen[7] != 1 {
		t.Fatalf("distribution wrong: %v", seen)
	}
}

func TestPoolDistinctWorkersConcurrent(t *testing.T) {
	// All parts of one barrier must be able to execute concurrently: if the
	// pool serialized them, a rendezvous via channels would deadlock.
	pl := newPool(2, 0)
	defer pl.close()
	a, b := make(chan struct{}), make(chan struct{})
	durs := make([]time.Duration, 2)
	done := make(chan struct{})
	go func() {
		pl.run(2, func(w int) {
			if w == 0 {
				a <- struct{}{}
				<-b
			} else {
				<-a
				b <- struct{}{}
			}
		}, durs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool serialized parts: rendezvous deadlocked")
	}
}

func TestPoolTooManyPartsPanics(t *testing.T) {
	pl := newPool(2, 0)
	defer pl.close()
	durs := make([]time.Duration, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("run with parts > workers did not panic")
		}
	}()
	pl.run(3, func(w int) {}, durs)
}

// TestPoolZeroWorkersClamps covers the empty-schedule path: executors size
// the pool from MaxWidth, which can be zero, and the pool must still serve
// width-1 rounds on the caller's goroutine.
func TestPoolZeroWorkersClamps(t *testing.T) {
	pl := newPool(0, 0)
	defer pl.close()
	durs := make([]time.Duration, 1)
	ran := false
	pl.run(1, func(w int) { ran = true }, durs)
	if !ran {
		t.Fatal("zero-worker pool did not run the caller's part")
	}
}

// TestPoolManyRoundsVaryingWidth hammers the barrier with width changes so
// idle workers repeatedly park across rounds they do not participate in; the
// 24-wide pool takes the one arrival counter well past the widths any
// schedule here produces.
func TestPoolManyRoundsVaryingWidth(t *testing.T) {
	for _, workers := range []int{6, 24} {
		pl := newPool(workers, 0)
		durs := make([]time.Duration, workers)
		seen := make([]int64, workers)
		want := make([]int64, workers)
		for round := 0; round < 500; round++ {
			parts := 1 + round*5%workers
			for w := 0; w < parts; w++ {
				want[w]++
			}
			pl.run(parts, func(w int) { atomic.AddInt64(&seen[w], 1) }, durs[:parts])
		}
		pl.close()
		for w := range seen {
			if seen[w] != want[w] {
				t.Fatalf("pool of %d: slot %d ran %d rounds, want %d", workers, w, seen[w], want[w])
			}
		}
	}
}

func TestPoolSingleWorker(t *testing.T) {
	pl := newPool(1, 0)
	defer pl.close()
	ran := false
	durs := make([]time.Duration, 1)
	pl.run(1, func(w int) { ran = w == 0 }, durs)
	if !ran {
		t.Fatal("single-worker pool did not run on caller goroutine")
	}
}
