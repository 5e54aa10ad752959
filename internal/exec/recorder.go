package exec

import (
	"sync/atomic"
	"time"
)

// Recorder is the hot-path execution profiler: per-s-partition spans and
// per-worker busy/wait accumulators recorded into preallocated buffers behind
// a single atomic enable flag. A Recorder attaches to a Runner (SetRecorder)
// and profiles the compiled and packed paths, with near-zero cost when
// disabled: executors load the flag once per run, and a disabled run touches
// nothing else.
//
// Recording itself happens on the caller goroutine right after each barrier,
// where the per-w-partition durations are already gathered for Stats
// accounting, so enabling costs one ring append per w-partition and no
// synchronization beyond what the executor already does. The span ring is
// fixed-size (NewRecorder's capSpans): when full, the oldest spans are
// overwritten and DroppedSpans counts the loss — a profiler must never grow
// without bound under a long solve.
//
// A Recorder may be attached to one runner at a time (executors are
// single-caller by contract, making the recorder single-writer); reads
// (Spans, Breakdown) are meant for after the run or between runs.
type Recorder struct {
	on atomic.Bool

	spans   []Span // ring storage, preallocated
	next    int    // ring write cursor
	wrapped bool   // ring has lapped at least once
	dropped int64  // spans overwritten

	// Per-worker accumulators, preallocated to the width given at
	// construction (wider runs clamp to the allocated width).
	busy []time.Duration // sum of w-partition run times per worker slot
	wait []time.Duration // sum of (barrier max - own run time) per worker slot

	// Per-s-partition accumulators, grown on first sight of an s-partition
	// index (bounded by the schedule's partition count, not by run count).
	parts []PartitionProfile

	runs     int
	barriers int64
	fold     time.Duration // host-side spill-slot folding between rounds
}

// Span records one worker slot's share of one s-partition, for timeline
// visualization.
type Span struct {
	SPartition int           `json:"s"`
	WPartition int           `json:"w"`
	Start      time.Duration `json:"start_ns"`
	Duration   time.Duration `json:"dur_ns"`
	Iters      int           `json:"iters"`
}

// PartitionProfile aggregates one s-partition's barrier economics across
// recorded runs.
type PartitionProfile struct {
	// S is the s-partition index; Width its w-partition count; Iters the
	// iterations per run.
	S, Width, Iters int
	// Rounds counts how many recorded barriers this partition contributed.
	Rounds int64
	// BusyNs sums all workers' run time; MaxNs sums the per-round maximum
	// (the critical path through this partition across runs); WaitNs sums
	// all workers' barrier wait (round max minus own run time).
	BusyNs, MaxNs, WaitNs int64
}

// Imbalance is the partition's load-imbalance fraction: total worker wait
// over total worker-rounds of critical-path time. 0 is perfectly balanced;
// 0.5 means half the worker time at this barrier was spent waiting.
func (p PartitionProfile) Imbalance() float64 {
	den := float64(p.MaxNs) * float64(p.Width)
	if den == 0 {
		return 0
	}
	return float64(p.WaitNs) / den
}

// NewRecorder preallocates a recorder holding up to capSpans spans (clamped
// to at least 1) for schedules up to width workers wide. The recorder starts
// disabled.
func NewRecorder(capSpans, width int) *Recorder {
	if capSpans < 1 {
		capSpans = 1
	}
	if width < 1 {
		width = 1
	}
	return &Recorder{
		spans: make([]Span, capSpans),
		busy:  make([]time.Duration, width),
		wait:  make([]time.Duration, width),
	}
}

// Enable turns recording on. Executors sample the flag once at run start, so
// the flip lands on the next run, not mid-schedule.
func (r *Recorder) Enable() { r.on.Store(true) }

// Enabled reports the flag.
func (r *Recorder) Enabled() bool { return r.on.Load() }

// Reset clears recorded data (not the enable flag).
func (r *Recorder) Reset() {
	r.next, r.wrapped, r.dropped = 0, false, 0
	for i := range r.busy {
		r.busy[i], r.wait[i] = 0, 0
	}
	r.parts = r.parts[:0]
	r.runs, r.barriers = 0, 0
	r.fold = 0
}

// beginRun marks the start of one recorded execution.
func (r *Recorder) beginRun() { r.runs++ }

// record ingests one barrier round: s-partition si started at offset start
// (from the run's t0); worker slot k ran its share of the round for durs[k],
// covering the woff[k+1]-woff[k] iterations of its w-partition
// (core.Program.WOff). Worker slots — not global w-partition ids —
// key the spans and the busy/wait accumulators, keeping one row per worker on
// the timeline.
func (r *Recorder) record(si int, start time.Duration, durs []time.Duration, woff []int32) {
	var maxD time.Duration
	for _, d := range durs {
		if d > maxD {
			maxD = d
		}
	}
	for si >= len(r.parts) {
		r.parts = append(r.parts, PartitionProfile{S: len(r.parts)})
	}
	p := &r.parts[si]
	p.Width = len(durs)
	p.Rounds++
	p.MaxNs += maxD.Nanoseconds()
	r.barriers++
	var pIters int
	for k, d := range durs {
		it := int(woff[k+1] - woff[k])
		pIters += it
		if r.wrapped {
			r.dropped++ // overwriting the oldest span
		}
		r.spans[r.next] = Span{SPartition: si, WPartition: k, Start: start, Duration: d, Iters: it}
		r.next++
		if r.next == len(r.spans) {
			r.next, r.wrapped = 0, true
		}
		if k < len(r.busy) {
			r.busy[k] += d
			r.wait[k] += maxD - d
		}
		p.BusyNs += d.Nanoseconds()
		p.WaitNs += (maxD - d).Nanoseconds()
	}
	p.Iters = pIters
}

// Spans returns the recorded spans oldest-first (a copy; the ring stays
// owned by the recorder). With overflow, only the newest capSpans survive.
func (r *Recorder) Spans() []Span {
	if !r.wrapped {
		return append([]Span(nil), r.spans[:r.next]...)
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	return append(out, r.spans[:r.next]...)
}

// Runs returns how many executions were recorded.
func (r *Recorder) Runs() int { return r.runs }

// Breakdown summarizes the recorded profile: per-s-partition barrier
// economics plus per-worker busy/wait totals.
type Breakdown struct {
	// Runs and Barriers recorded.
	Runs     int
	Barriers int64
	// Partitions, indexed by s-partition.
	Partitions []PartitionProfile
	// WorkerBusyNs/WorkerWaitNs are per worker slot across all partitions.
	WorkerBusyNs, WorkerWaitNs []int64
	// TotalBusyNs/TotalWaitNs sum the workers; Imbalance is TotalWait over
	// (TotalBusy+TotalWait) — the fraction of worker time lost at barriers.
	TotalBusyNs, TotalWaitNs int64
	// Steals is always zero: the executor has one worker loop and nothing
	// moves a w-partition off its slot. The field stays only because
	// bench/layers.go compiles against it (ROADMAP item 11 drops both).
	Steals int64
	// FoldNs is the calling goroutine's time between rounds spent folding the
	// packed scatter loops' spill slots into their targets: host-side work no
	// worker's busy or wait time contains.
	FoldNs int64
	// DroppedSpans counts ring overwrites (0 means Spans is complete).
	DroppedSpans int64
}

// Imbalance is the fraction of all worker time spent waiting at barriers.
func (b Breakdown) Imbalance() float64 {
	den := b.TotalBusyNs + b.TotalWaitNs
	if den == 0 {
		return 0
	}
	return float64(b.TotalWaitNs) / float64(den)
}

// Breakdown computes the summary over everything recorded so far.
func (r *Recorder) Breakdown() Breakdown {
	b := Breakdown{
		Runs:         r.runs,
		Barriers:     r.barriers,
		Partitions:   append([]PartitionProfile(nil), r.parts...),
		WorkerBusyNs: make([]int64, len(r.busy)),
		WorkerWaitNs: make([]int64, len(r.wait)),
		FoldNs:       r.fold.Nanoseconds(),
		DroppedSpans: r.dropped,
	}
	for i := range r.busy {
		b.WorkerBusyNs[i] = r.busy[i].Nanoseconds()
		b.WorkerWaitNs[i] = r.wait[i].Nanoseconds()
		b.TotalBusyNs += b.WorkerBusyNs[i]
		b.TotalWaitNs += b.WorkerWaitNs[i]
	}
	return b
}
