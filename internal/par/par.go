// Package par provides the tiny fork-join primitives the inspector pipeline
// is parallelized with. Unlike the executor's spin-barrier pool (which is
// tuned for hundreds of microsecond-scale rounds per run), inspector stages
// run once per inspection and last tens of microseconds to milliseconds, so
// plain goroutines with an atomic work counter are the right tool: no
// persistent state, no spinning that would take cycles on oversubscribed
// machines, and a serial fast path when only one worker is requested.
//
// Determinism contract: callers pass closures that write results only to
// slots indexed by their task number, so the output is byte-identical to a
// serial run regardless of worker count or interleaving.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count to [1, n]: at least one worker,
// and never more workers than tasks. A request of 0 or less means serial.
// Inspector tasks are CPU-bound, so more workers than GOMAXPROCS only adds
// context switches and cache thrash (two goroutines interleaving over two
// large working sets on one P evict each other); the clamp keeps a Workers=8
// request harmless on a 1-core machine.
func Workers(requested, n int) int {
	if requested < 1 {
		return 1
	}
	if requested > n {
		requested = n
	}
	if max := runtime.GOMAXPROCS(0); requested > max {
		requested = max
	}
	return requested
}

// Do runs the tasks, at most workers at a time, and returns when all are
// done. workers <= 1 runs them inline in order.
func Do(workers int, tasks ...func()) {
	ForEach(workers, len(tasks), func(i int) { tasks[i]() })
}

// ForEach runs fn(0..n-1), at most workers goroutines at a time, pulling
// task indices from a shared atomic counter. workers <= 1 (or n <= 1) runs
// serially in index order on the caller's goroutine.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for stages that keep per-worker scratch state:
// fn additionally receives the stable worker id in [0, Workers(workers, n)),
// so a worker can index its own scratch without synchronization. Worker 0 is
// the caller's goroutine.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	workers = Workers(workers, n)
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	body := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(worker, i)
		}
	}
	for w := 1; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			body(worker)
		}(w)
	}
	body(0) // the caller is worker 0
	wg.Wait()
}
