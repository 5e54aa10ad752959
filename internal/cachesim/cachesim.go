// Package cachesim models the memory hierarchy well enough to compute the
// paper's average-memory-access-latency proxy (figure 6, top), replacing the
// PAPI hardware counters of the original evaluation: per-thread L1 and TLB,
// a shared last-level cache, LRU replacement, and the textbook
// average-latency formula (Hennessy & Patterson).
//
// Kernels expose their per-iteration address streams through kernels.Tracer:
// one body per kernel, replayed over a view of each iteration's operand run —
// the matrix-order arrays, or a runner's schedule-order streams. One walker
// replays the steps of a combos.Impl in execution order into one of two
// sinks: Simulate's hierarchy per thread slot, or Profile's stack-distance
// analyzer per thread slot (internal/locality).
package cachesim

import (
	"fmt"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/locality"
	"sparsefusion/internal/relayout"
)

// Config describes the simulated hierarchy. Latencies are in cycles.
type Config struct {
	L1Size, L1Assoc   int
	LLCSize, LLCAssoc int
	LineSize          int
	TLBEntries        int
	PageSize          int
	L1Lat, LLCLat     float64
	MemLat            float64
	TLBMissLat        float64
}

// Default mirrors the paper's Cascade Lake testbed: 32 KiB 8-way L1, 33 MB
// 16-way shared LLC, 64-byte lines, 64-entry TLB with 4 KiB pages; 4 / 40 /
// 200 cycle latencies and 100 cycles per TLB miss.
func Default() Config {
	return Config{
		L1Size: 32 << 10, L1Assoc: 8,
		LLCSize: 33 << 20, LLCAssoc: 16,
		LineSize:   64,
		TLBEntries: 64, PageSize: 4 << 10,
		L1Lat: 4, LLCLat: 40, MemLat: 200, TLBMissLat: 100,
	}
}

// cache is a set-associative LRU cache over line/page tags.
type cache struct {
	sets     [][]uint64
	setShift uint
	setMask  uint64
}

func newCache(size, assoc, line int) *cache {
	nSets := size / (assoc * line)
	if nSets < 1 {
		nSets = 1
	}
	// Round down to a power of two for mask indexing.
	for nSets&(nSets-1) != 0 {
		nSets &= nSets - 1
	}
	c := &cache{sets: make([][]uint64, nSets), setMask: uint64(nSets - 1)}
	for s := uint(0); (1 << s) < line; s++ {
		c.setShift = s + 1
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, assoc)
	}
	return c
}

// access returns true on hit and updates LRU order (most recent last).
func (c *cache) access(addr uintptr) bool {
	tag := uint64(addr) >> c.setShift
	set := c.sets[tag&c.setMask]
	for i, t := range set {
		if t == tag {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = tag
			return true
		}
	}
	if len(set) < cap(set) {
		set = append(set, tag)
	} else {
		copy(set, set[1:])
		set[len(set)-1] = tag
	}
	c.sets[tag&c.setMask] = set
	return false
}

// thread is one simulated hardware thread: private L1 and TLB, a pointer to
// the shared LLC.
type thread struct {
	l1, tlb *cache
	llc     *cache
	cfg     *Config

	accesses int64
	cycles   float64
}

func newThread(cfg *Config, llc *cache) *thread {
	return &thread{
		l1:  newCache(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		tlb: newCache(cfg.TLBEntries*cfg.PageSize, cfg.TLBEntries, cfg.PageSize),
		llc: llc,
		cfg: cfg,
	}
}

func (t *thread) access(addr uintptr) {
	t.accesses++
	if !t.tlb.access(addr) {
		t.cycles += t.cfg.TLBMissLat
	}
	switch {
	case t.l1.access(addr):
		t.cycles += t.cfg.L1Lat
	case t.llc.access(addr):
		t.cycles += t.cfg.LLCLat
	default:
		t.cycles += t.cfg.MemLat
	}
}

// Result aggregates a measurement.
type Result struct {
	Accesses int64
	Cycles   float64
}

// AvgLatency returns cycles per access, the figure 6 metric.
func (r Result) AvgLatency() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return r.Cycles / float64(r.Accesses)
}

// Simulate replays steps, in order, through one hierarchy per thread slot
// over a shared LLC: the memory-latency proxy of what those steps execute.
func Simulate(steps []combos.Step, cfg Config) (Result, error) {
	llc := newCache(cfg.LLCSize, cfg.LLCAssoc, cfg.LineSize)
	threads := make([]*thread, width(steps))
	emit := make([]func(uintptr), len(threads))
	for w := range threads {
		threads[w] = newThread(&cfg, llc)
		emit[w] = threads[w].access
	}
	if err := walk(steps, emit); err != nil {
		return Result{}, err
	}
	var r Result
	for _, t := range threads {
		r.Accesses += t.accesses
		r.Cycles += t.cycles
	}
	return r, nil
}

// Profile replays steps, in order, through one stack-distance analyzer per
// thread slot (one thread's locality each) and sums the slot profiles.
func Profile(steps []combos.Step, lineSize int) (locality.Profile, error) {
	ans := make([]*locality.Analyzer, width(steps))
	emit := make([]func(uintptr), len(ans))
	for w := range ans {
		ans[w] = locality.NewAnalyzer(lineSize)
		emit[w] = ans[w].Access
	}
	if err := walk(steps, emit); err != nil {
		return locality.Profile{}, err
	}
	var total locality.Profile
	for _, an := range ans {
		p := an.Profile()
		for b, c := range p.Buckets {
			total.Buckets[b] += c
		}
		total.Cold += p.Cold
		total.Accesses += p.Accesses
	}
	return total, nil
}

// width is the number of thread slots steps occupy: the widest s-partition of
// any step's program, at least 1.
func width(steps []combos.Step) int {
	w := 1
	for _, s := range steps {
		if s.Runner != nil {
			w = max(w, s.Runner.Program().MaxWidth)
		}
	}
	return w
}

// walk replays steps in execution order, sending thread slot w's accesses to
// emit[w]. A step without a runner runs its kernels one after another on slot
// 0; otherwise slot w of s-partition s runs w-partition SOff[s]+w of the
// runner's program. Each kernel's one trace body reads its operand runs from
// the packed streams when the runner has a layout attached and from the
// matrix-order arrays when it has not.
func walk(steps []combos.Step, emit []func(uintptr)) error {
	for _, st := range steps {
		var prog *core.Program
		var lay *relayout.Layout
		if st.Runner != nil {
			prog, lay = st.Runner.Program(), st.Runner.Layout()
		}
		trs := make([]kernels.Tracer, len(st.Kernels))
		for i, k := range st.Kernels {
			var ok bool
			trs[i], ok = k.(kernels.Tracer)
			if _, packs := k.(kernels.PackedKernel); !ok || lay != nil && !packs {
				return fmt.Errorf("cachesim: kernel %s does not support tracing (packed: %v)", k.Name(), lay != nil)
			}
		}
		if prog == nil {
			for i, k := range st.Kernels {
				for it := 0; it < k.Iterations(); it++ {
					trs[i].Trace(it, kernels.MatrixView(k, it), emit[0])
				}
			}
			continue
		}
		for s := 0; s < prog.NumSPartitions(); s++ {
			w0 := int(prog.SOff[s])
			for w := w0; w < int(prog.SOff[s+1]); w++ {
				e := emit[w-w0]
				for g := prog.WSeg[w]; g < prog.WSeg[w+1]; g++ {
					loop := int(prog.SegLoop[g])
					k, tr := st.Kernels[loop], trs[loop]
					iters := prog.Iters[prog.SegOff[g]:prog.SegOff[g+1]]
					if lay == nil {
						for _, v := range iters {
							i := int(v & kernels.IterMask)
							tr.Trace(i, kernels.MatrixView(k, i), e)
						}
						continue
					}
					stream, ent, it := lay.Streams[loop], int(lay.SegEnt[g]), int(prog.SegIter[g])
					for _, v := range iters {
						view := stream.View(ent, it, e)
						tr.Trace(int(v&kernels.IterMask), view, e)
						ent, it = ent+view.Len(), it+1
					}
				}
			}
		}
	}
	return nil
}
