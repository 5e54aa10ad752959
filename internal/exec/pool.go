package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// pool is a persistent set of worker goroutines synchronized by a
// sense-reversing spin barrier. The previous implementation handed a closure
// to each worker through a channel per barrier; at the hundreds of barriers
// per executor run produced by fused schedules, the channel send/receive and
// sync.WaitGroup traffic dominated the synchronization cost. Here a round is
// published with a single atomic store and completion is a single atomic
// counter, so an uncontended barrier is two atomic operations per worker.
//
// Wakeup policy: waiters spin on the atomic for a short budget (trimmed to
// almost nothing when GOMAXPROCS < workers, where spinning only takes time
// from the goroutine being waited on), then yield with runtime.Gosched for a
// few rounds, then park on a per-worker channel. While the pool is held (a
// solver between the chain passes of one solve), an idle worker keeps
// polling past the budget instead of yielding and parking; Pool.Hold refuses
// an oversubscribed pool, where the trim wins. Parking uses the classic
// flag-then-recheck protocol so a wakeup can never be lost: a waiter raises
// its flag and re-reads the condition before blocking, and a releaser changes
// the condition before testing the flag, so at least one side always sees the
// other.
type pool struct {
	workers int
	spin    int // spin iterations before yielding

	// watchdog, when positive, bounds how long the caller waits at the
	// barrier for workers to arrive. A round that exceeds it is converted
	// into a synthetic watchdog fault instead of a hang — and the pool is
	// poisoned: a straggler that eventually finishes could corrupt the next
	// round's arrival accounting, so a tripped pool refuses further runs and
	// must be replaced (the serving layer does this on checkout return).
	watchdog time.Duration
	poison   atomic.Bool

	// word publishes rounds to the workers as epoch<<wordPartsBits | parts.
	// Packing the width into the same word the workers synchronize on means
	// a worker always decodes the width from the exact round it observed —
	// a separate plain field could pair a new epoch with a stale width.
	word    atomic.Uint64
	arrived atomic.Int32 // workers finished with the current round
	closed  atomic.Bool
	// hold counts the holders (Pool.Hold) that expect the next round within
	// microseconds; while positive, idle workers do not park.
	hold atomic.Int32

	// body is the current round's work; it is published by the atomic store
	// to word, stable until every participant has arrived, and cleared then,
	// so an idle pool pins nothing of the last run that used it. durs is the
	// pool-private duration scratch workers write into — run copies it to the
	// caller's slice only after every participant arrived, so a straggler
	// leaked by a watchdog trip can never scribble on caller-owned memory.
	body func(int)
	durs []time.Duration

	// fault holds the first panic recovered from a worker body this run.
	// Every body call goes through invoke, which recovers into this pointer
	// and lets the worker arrive at the barrier normally, so a panicking
	// body can never leave the caller spinning in awaitArrived. Executors
	// collect it with takeFault after each round.
	fault atomic.Pointer[workerFault]

	park []parkSlot // slot 0 is the caller, slots 1.. the workers
	wg   sync.WaitGroup
}

const (
	wordPartsBits = 16
	wordPartsMask = 1<<wordPartsBits - 1

	yieldRounds = 128

	// defaultSpinBudget is how many times a waiter polls the round word
	// before escalating to yield and then park. 30k polls measured ≈ 10–15 µs
	// on the 2-vCPU reference box (ROADMAP items 1–2, finding ii): longer
	// than an uncontended barrier round-trip, shorter than a scheduler
	// wakeup — and shorter than the gap between two short rounds, so a
	// worker is often already yielding when the next one is published. A
	// pool wider than GOMAXPROCS trims it to one poll (newPool).
	defaultSpinBudget = 30_000
)

// parkSlot is the per-goroutine parking space, padded out to its own cache
// line so a releaser testing one flag does not bounce its neighbors.
type parkSlot struct {
	flag atomic.Bool   // raised while the owner is parking
	ch   chan struct{} // capacity 1; at most one token in flight
	_    [48]byte
}

// newPool starts workers-1 goroutines (the caller's goroutine acts as
// worker 0, saving one handoff per barrier). workers < 1 is clamped to 1:
// empty schedules ask for a zero-width pool but still need the caller slot.
// Waiters spin defaultSpinBudget polls, trimmed to 1 when the pool is wider
// than GOMAXPROCS (oversubscribed: a spinning waiter occupies the CPU its
// producer needs, so go straight to yielding). watchdog is the stuck-barrier
// bound; 0 disables it and waiting is unbounded.
func newPool(workers int, watchdog time.Duration) *pool {
	if workers < 1 {
		workers = 1
	}
	p := &pool{workers: workers, spin: defaultSpinBudget, watchdog: watchdog,
		durs: make([]time.Duration, workers)}
	if runtime.GOMAXPROCS(0) < workers {
		p.spin = 1
	}
	p.park = make([]parkSlot, workers)
	for i := range p.park {
		p.park[i].ch = make(chan struct{}, 1)
	}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// run executes body(0..parts-1) in parallel and returns per-part durations
// in durs. It panics if parts exceeds the pool's worker count: workers beyond
// the pool size do not exist, and silently running their parts on the caller
// would serialize the barrier and corrupt the duration accounting.
func (p *pool) run(parts int, body func(w int), durs []time.Duration) {
	if parts > p.workers {
		panic(fmt.Sprintf("exec: pool.run called with %d parts on a pool of %d workers", parts, p.workers))
	}
	if p.poison.Load() {
		// A straggler from the watchdog-tripped round may still be running
		// and would corrupt this round's arrival accounting; refuse instead.
		p.fault.CompareAndSwap(nil, &workerFault{worker: -1, watchdog: true,
			recovered: "exec: run refused: pool poisoned by an earlier barrier-watchdog trip"})
		return
	}
	if parts == 1 {
		p.body = body
		t0 := time.Now()
		p.invoke(0)
		durs[0] = time.Since(t0)
		p.body = nil
		return
	}
	p.body = body
	p.arrived.Store(0)
	want := int32(parts - 1)
	epoch := p.word.Load() >> wordPartsBits
	p.word.Store((epoch+1)<<wordPartsBits | uint64(parts))
	for w := 1; w < parts; w++ {
		p.release(w)
	}
	t0 := time.Now()
	p.invoke(0)
	durs[0] = time.Since(t0)
	if !p.awaitArrived(want) {
		// A worker failed to arrive within the watchdog bound: convert the
		// stuck barrier into a synthetic fault (a real worker fault wins the
		// CAS — it is probably why the round looks stuck) and poison the
		// pool so no further round races the straggler. The caller's durs are
		// left untouched: the straggler may still write its pool-private slot
		// arbitrarily late, and the round is reported as an error anyway.
		p.poison.Store(true)
		p.fault.CompareAndSwap(nil, &workerFault{worker: -1, watchdog: true,
			recovered: fmt.Sprintf("exec: barrier watchdog: worker failed to arrive within %v", p.watchdog)})
		return
	}
	// Every participant arrived (the arrival counter's acquire edge orders
	// their scratch writes and body reads before this point), so the
	// durations are stable and the body is no longer read.
	copy(durs[1:parts], p.durs[1:parts])
	p.body = nil
}

// arrive signals that a worker slot finished a parts-wide round; the last
// finisher wakes the caller if it parked.
func (p *pool) arrive(parts int) {
	if p.arrived.Add(1) == int32(parts-1) {
		p.release(0)
	}
}

// invoke runs the current round's body for worker slot w under a recover
// shield: any panic is recorded as the run's fault (first writer wins) and
// the call returns normally, so the slot still arrives at the barrier and no
// goroutine — caller or worker — can hang on a panicking body.
func (p *pool) invoke(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.fault.CompareAndSwap(nil, &workerFault{worker: w, recovered: r, stack: debug.Stack()})
		}
	}()
	p.body(w)
}

// takeFault returns the fault recorded since the last call (nil if none) and
// re-arms the channel so the pool — and the Runner holding it — stays usable
// for subsequent runs.
func (p *pool) takeFault() *workerFault {
	f := p.fault.Load()
	if f != nil {
		p.fault.Store(nil)
	}
	return f
}

// close stops the workers and waits for them to exit. A poisoned pool (a
// watchdog-tripped round whose straggler may be stuck in a worker body
// forever) waits only one watchdog bound longer, then leaks the stragglers
// rather than hanging the closer: the goroutines cost memory, a deadlocked
// Close costs the service.
func (p *pool) close() {
	if p.workers == 1 {
		return
	}
	p.closed.Store(true)
	p.word.Add(1 << wordPartsBits) // new epoch so spinners re-check closed
	for w := 1; w < p.workers; w++ {
		p.release(w)
	}
	if p.poison.Load() && p.watchdog > 0 {
		done := make(chan struct{})
		go func() {
			p.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(p.watchdog):
		}
		return
	}
	p.wg.Wait()
}

func (p *pool) worker(w int) {
	defer p.wg.Done()
	// The baseline is the zero word, not a fresh load: a worker scheduled
	// late could otherwise adopt an already-published round as "seen" and
	// never join it, deadlocking the caller. Epochs only grow, so every
	// published round differs from zero.
	last := uint64(0)
	for {
		word := p.awaitWord(w, last)
		if p.closed.Load() {
			return
		}
		last = word
		parts := int(word & wordPartsMask)
		if w >= parts {
			continue // idle this round; the width came from the same word
		}
		t0 := time.Now()
		p.invoke(w)
		p.durs[w] = time.Since(t0)
		p.arrive(parts)
	}
}

// awaitWord blocks worker slot until the round word changes from last,
// escalating spin -> yield -> park. A held pool stays in the spin until the
// hold is released; close bumps the epoch, so a held spinner still sees it.
func (p *pool) awaitWord(slot int, last uint64) uint64 {
	for i := 0; i < p.spin || p.hold.Load() > 0; i++ {
		if w := p.word.Load(); w != last {
			return w
		}
	}
	for i := 0; i < yieldRounds; i++ {
		if w := p.word.Load(); w != last {
			return w
		}
		runtime.Gosched()
	}
	s := &p.park[slot]
	for {
		s.flag.Store(true)
		if w := p.word.Load(); w != last {
			if !s.flag.Swap(false) {
				<-s.ch // a releaser consumed the flag: drain its token
			}
			return w
		}
		<-s.ch
		if w := p.word.Load(); w != last {
			return w
		}
	}
}

// awaitArrived blocks the caller (slot 0) until want workers have finished
// the current round, escalating spin -> yield -> park. With a watchdog bound
// configured, parking is bounded: a round whose workers do not arrive within
// the bound returns false (the caller poisons the pool) instead of hanging
// the caller forever behind a stuck or runaway worker body.
func (p *pool) awaitArrived(want int32) bool {
	for i := 0; i < p.spin; i++ {
		if p.arrived.Load() == want {
			return true
		}
	}
	for i := 0; i < yieldRounds; i++ {
		if p.arrived.Load() == want {
			return true
		}
		runtime.Gosched()
	}
	var timeout <-chan time.Time
	if p.watchdog > 0 {
		t := time.NewTimer(p.watchdog)
		defer t.Stop()
		timeout = t.C
	}
	s := &p.park[0]
	for {
		s.flag.Store(true)
		if p.arrived.Load() == want {
			if !s.flag.Swap(false) {
				<-s.ch
			}
			return true
		}
		select {
		case <-s.ch:
			if p.arrived.Load() == want {
				return true
			}
		case <-timeout:
			// Leave the park slot clean for close(): lower our flag, and if
			// a releaser won the swap first, drain the token it is sending.
			// That releaser means the round actually completed in the race
			// window — re-check before declaring the barrier stuck.
			if !s.flag.Swap(false) {
				<-s.ch
			}
			return p.arrived.Load() == want
		}
	}
}

// release wakes slot if it is parked (or about to park). Lowering the flag
// and sending are paired: only the side that wins the Swap sends, so the
// capacity-1 channel never accumulates stale tokens.
func (p *pool) release(slot int) {
	s := &p.park[slot]
	if s.flag.Swap(false) {
		s.ch <- struct{}{}
	}
}
