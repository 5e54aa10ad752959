package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "layer.operation"; Parent is
// the index of the span that caused it (-1 for a root); spans of one unit of
// work share Req; Lane is the load-generating goroutine.
type span struct {
	Name       string
	Parent     int
	Lane, Req  int
	Start, End time.Duration
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so the timed code is the same
// with and without tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, lane, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Lane: lane, Req: req, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// phases records consecutive child spans of parent from durations a layer
// measured itself (the ICO stage timings), laid end to end from the parent's
// start.
func (t *tracer) phases(parent int, names []string, durs []time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	at := p.Start
	for i, n := range names {
		t.spans = append(t.spans, span{Name: n, Parent: parent, Lane: p.Lane, Req: p.Req, Start: at, End: at + durs[i]})
		at += durs[i]
	}
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	Count       int
	Total, Self time.Duration
}

// byName sums, per span name, the total duration and the self time: a span's
// duration minus the part of its interval covered by its child spans
// (overlapping children are counted once).
func (t *tracer) byName() map[string]nameStat {
	out := map[string]nameStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: the call failed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}

// meanMS is the mean duration in ms of the spans called name (0 if none).
func (t *tracer) meanMS(name string) float64 {
	st := t.byName()[name]
	if st.Count == 0 {
		return 0
	}
	return ms(st.Total) / float64(st.Count)
}

// writeChrome writes the spans in Chrome trace-event format (loadable in
// chrome://tracing and ui.perfetto.dev): one row per lane, nested slices for
// child spans, the request id and parent in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		layer := s.Name
		for j := range layer {
			if layer[j] == '.' {
				layer = layer[:j]
				break
			}
		}
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane + 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "req": s.Req},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
