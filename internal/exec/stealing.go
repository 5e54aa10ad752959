package exec

import (
	"sync/atomic"
	"time"

	"sparsefusion/internal/core"
)

// This file is the work-stealing executor path. The static path hands worker
// slot w exactly the w-partition w0+w of the current s-partition, which is
// optimal only when the LBC balancer's iteration-count proxy matches real run
// time. Here each slot instead owns a deque of w-partition ids seeded from a
// deterministic LPT assignment (core.AssignProgram): the owner drains its
// deque from the head, and a slot that runs dry steals whole w-partitions
// from the tail of the slot with the most work left. Stealing is bounded in
// both directions that matter for correctness: it never crosses the current
// s-partition (the barrier still orders dependent rounds), and a w-partition
// always runs whole on one goroutine (its internal arithmetic order — the
// bit-exactness contract — is untouched; only which goroutine runs it moves).
// That covers the packed scatter loops too: the spill slots a w-partition
// accumulates contended updates into are named in its packed stream, so a
// stolen w-partition writes the same slots its owner would have.
//
// The seed doubles as affinity: it is held constant across runs of one
// Program, so a w-partition's operand cache lines stay with the slot that ran
// it last time, and the first-touch relayout mode places its packed stream
// pages by the same map. Every run records its steal count; a persistent
// excess (the balance proxy was wrong, not just one noisy run) re-seeds the
// assignment from measured per-w-partition run times.

// stealCursor is one slot's deque over a contiguous id range of the
// assignment: head<<32|tail packed in one word so a pop can move either end
// with a single CAS — separate head and tail counters can hand the last
// remaining w-partition to both the owner and a thief. Padded to a cache
// line; thieves hammer their victim's cursor, not their neighbors'.
type stealCursor struct {
	hv atomic.Uint64
	_  [56]byte
}

func packCursor(head, tail int32) uint64 { return uint64(uint32(head))<<32 | uint64(uint32(tail)) }

func unpackCursor(v uint64) (head, tail int32) { return int32(v >> 32), int32(uint32(v)) }

// slotCounters is a slot's private round accounting, padded so neighbors do
// not false-share. steals counts w-partitions this slot took from others.
type slotCounters struct {
	steals int64
	_      [56]byte
}

// stealState is the per-Runner stealing context: the seeded assignment, the
// per-slot deque cursors and counters, and the feedback that drives
// re-seeding. All round-scoped fields are written by the caller between
// barriers (beginRound/collectRound) and by worker slots during a round; the
// pool's barrier atomics order the two phases.
type stealState struct {
	asn *core.Assignment

	cur  []stealCursor  // per-slot deque over asn.IDs
	cnt  []slotCounters // per-slot steals this round
	curW []int32        // per-slot w-partition currently executing (fault attribution)

	// wLoad is the measured-run-time EWMA per global w-partition, in ns;
	// 0 means never measured. Written by whichever slot executes the
	// w-partition (exactly one per run), read at re-seed time.
	wLoad []int64

	runSteals   int64 // steals in the current run
	heavyRuns   int   // consecutive runs above the steal threshold
	stealsTotal int64 // cumulative, across re-seeds
	reseeds     int64
}

func newStealState(prog *core.Program, workers int) *stealState {
	asn := core.AssignProgram(prog, workers, nil)
	return &stealState{
		asn:   asn,
		cur:   make([]stealCursor, workers),
		cnt:   make([]slotCounters, workers),
		curW:  make([]int32, workers),
		wLoad: make([]int64, prog.NumWPartitions()),
	}
}

// stealFor returns the steal state seeded for a pool of plWorkers slots,
// building or re-seeding it when the effective width changed. The effective
// width is min(pool, MaxWidth): wider pools cannot use more slots than the
// widest s-partition has w-partitions.
func (r *Runner) stealFor(plWorkers int) *stealState {
	p := plWorkers
	if mw := r.prog.MaxWidth; p > mw {
		p = mw
	}
	if p < 1 {
		p = 1
	}
	if r.steal != nil && r.steal.asn.Workers == p {
		return r.steal
	}
	var old *stealState
	if r.steal != nil {
		old = r.steal
	}
	r.steal = newStealState(r.prog, p)
	if old != nil {
		// A width change re-seeds the map but the measured loads — and the
		// cumulative counters — survive.
		r.steal.wLoad = old.wLoad
		r.steal.stealsTotal = old.stealsTotal
		r.steal.reseeds = old.reseeds
	}
	return r.steal
}

// StealStats reports the cumulative steal and re-seed counts across all runs
// of this runner (zero when stealing was never enabled).
func (r *Runner) StealStats() (steals, reseeds int64) {
	if r.steal == nil {
		return 0, 0
	}
	return r.steal.stealsTotal, r.steal.reseeds
}

// beginRound arms every slot's deque with its seeded queue for s-partition s.
// Runs on the caller before the round word is published; the previous round
// is quiescent (every deque CAS of a round happens before its slot arrives at
// the barrier), so these stores race with nothing.
func (st *stealState) beginRound(s, parts int) {
	base := s * st.asn.Workers
	for q := 0; q < parts; q++ {
		st.cur[q].hv.Store(packCursor(st.asn.Off[base+q], st.asn.Off[base+q+1]))
	}
}

// popHead takes the next w-partition from slot q's own deque.
func (st *stealState) popHead(q int) (int32, bool) {
	c := &st.cur[q]
	for {
		v := c.hv.Load()
		h, t := unpackCursor(v)
		if h >= t {
			return 0, false
		}
		if c.hv.CompareAndSwap(v, packCursor(h+1, t)) {
			return st.asn.IDs[h], true
		}
	}
}

// popTail steals the last w-partition of slot v's deque — the lightest one,
// by LPT seed order, so stolen work drags as few cache lines as the imbalance
// allows.
func (st *stealState) popTail(v int) (int32, bool) {
	c := &st.cur[v]
	for {
		w := c.hv.Load()
		h, t := unpackCursor(w)
		if h >= t {
			return 0, false
		}
		if c.hv.CompareAndSwap(w, packCursor(h, t-1)) {
			return st.asn.IDs[t-1], true
		}
	}
}

// victim returns the slot (other than q) with the most w-partitions still
// queued, or -1 when every deque is empty.
func (st *stealState) victim(q, parts int) int {
	best, bestRem := -1, int32(0)
	for v := 0; v < parts; v++ {
		if v == q {
			continue
		}
		h, t := unpackCursor(st.cur[v].hv.Load())
		if rem := t - h; rem > bestRem {
			best, bestRem = v, rem
		}
	}
	return best
}

// stealRound is one slot's work loop for one s-partition: drain the own
// deque head-first, then steal tail-first from the heaviest victim until
// every deque in the round is empty.
func (r *Runner) stealRound(st *stealState, q, parts int, runBody func(int)) {
	for {
		w, ok := st.popHead(q)
		if !ok {
			break
		}
		r.execSteal(st, q, w, runBody)
	}
	for {
		v := st.victim(q, parts)
		if v < 0 {
			return
		}
		w, ok := st.popTail(v)
		if !ok {
			continue // lost the race for that victim's last unit; rescan
		}
		st.cnt[q].steals++
		r.execSteal(st, q, w, runBody)
	}
}

// execSteal runs one w-partition on slot q, tracking attribution and load.
// curW is written before the body so a panic recovered by the pool can be
// attributed to the exact w-partition (the static path derives it from the
// slot index, which stealing decouples). The measured duration feeds the
// per-w-partition EWMA that re-seeding balances on; one writer per run, and
// the barrier orders runs, so the plain slices are safe.
func (r *Runner) execSteal(st *stealState, q int, w int32, runBody func(int)) {
	st.curW[q] = w
	t0 := time.Now()
	runBody(int(w))
	d := time.Since(t0).Nanoseconds()
	if old := st.wLoad[w]; old > 0 {
		st.wLoad[w] = (3*old + d) / 4
	} else {
		st.wLoad[w] = d
	}
}

// collectRound harvests and resets the per-slot steal counters after a round.
// Caller-side, after the barrier.
func (st *stealState) collectRound(parts int) int64 {
	var n int64
	for q := 0; q < parts; q++ {
		n += st.cnt[q].steals
		st.cnt[q].steals = 0
	}
	st.runSteals += n
	st.stealsTotal += n
	return n
}

// finishRun closes one run's steal accounting and re-seeds the assignment
// when imbalance persisted: more than NumWPartitions/8 steals per run, for
// ReseedAfter consecutive runs, means the seed's weights are wrong for this
// machine and matrix — rebuild them from the measured EWMA loads. Returns
// true when a re-seed happened (recorders count these).
func (st *stealState) finishRun(prog *core.Program, reseedAfter int) bool {
	threshold := int64(prog.NumWPartitions() / 8)
	if threshold < 1 {
		threshold = 1
	}
	heavy := st.runSteals >= threshold
	st.runSteals = 0
	if !heavy {
		st.heavyRuns = 0
		return false
	}
	st.heavyRuns++
	if st.heavyRuns < reseedAfter {
		return false
	}
	st.heavyRuns = 0
	st.reseeds++
	load := st.wLoad
	st.asn = core.AssignProgram(prog, st.asn.Workers, func(w int) int64 {
		if l := load[w]; l > 0 {
			return l
		}
		return int64(prog.WOff[w+1] - prog.WOff[w]) // never measured: proxy
	})
	return true
}
