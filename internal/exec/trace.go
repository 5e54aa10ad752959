package exec

import (
	"encoding/json"
	"io"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// Span records one w-partition's execution for timeline visualization.
type Span struct {
	SPartition int           `json:"s"`
	WPartition int           `json:"w"`
	Start      time.Duration `json:"start_ns"`
	Duration   time.Duration `json:"dur_ns"`
	Iters      int           `json:"iters"`
}

// RunFusedTraced executes like RunFused while recording one Span per
// w-partition, for schedule visualization (cmd/spfuse -trace). On a worker
// fault the spans recorded so far are returned alongside the error — the
// partial timeline is exactly what explains the fault.
func RunFusedTraced(ks []kernels.Kernel, sched *core.Schedule, threads int) (Stats, []Span, error) {
	setAtomics(ks, sched.MaxWidth() > 1)
	defer setAtomics(ks, false)
	var st Stats
	var spans []Span
	t0 := time.Now()
	for _, k := range ks {
		k.Prepare()
	}
	pl := newPool(sched.MaxWidth())
	defer pl.close()
	durs := make([]time.Duration, sched.MaxWidth())
	starts := make([]time.Duration, sched.MaxWidth())
	for si, sp := range sched.S {
		pl.run(len(sp), func(w int) {
			starts[w] = time.Since(t0)
			for _, it := range sp[w] {
				ks[it.Loop].Run(it.Idx)
			}
		}, durs[:len(sp)])
		accumulate(&st, durs[:len(sp)], threads)
		for w := range sp {
			spans = append(spans, Span{
				SPartition: si, WPartition: w,
				Start: starts[w], Duration: durs[w], Iters: len(sp[w]),
			})
		}
		if f := pl.takeFault(); f != nil {
			st.Elapsed = time.Since(t0)
			return st, spans, f.execError(si, -1)
		}
	}
	st.Elapsed = time.Since(t0)
	return st, spans, nil
}

// WriteChromeTrace emits the spans in the Chrome trace-event format
// (load in chrome://tracing or https://ui.perfetto.dev): one row per
// w-partition slot, one slice per barrier.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"` // microseconds
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: spanName(s),
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.WPartition + 1,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

func spanName(s Span) string {
	return "s" + itoa(s.SPartition) + " (" + itoa(s.Iters) + " iters)"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
