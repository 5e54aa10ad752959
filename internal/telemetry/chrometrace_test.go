package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTimelineGolden pins the Chrome trace_event shape: metadata events
// (process_name, thread_name) first in registration order, then the spans,
// all inside {"traceEvents":[...]}.
func TestTimelineGolden(t *testing.T) {
	tb := NewTimeline()
	tb.Process(1, "inspector")
	tb.Thread(1, 1, "ico stages")
	tb.Process(2, "executor")
	tb.Thread(2, 1, "w0")
	tb.Span(1, 1, "lbc", "inspect", 0, 2*time.Millisecond, nil)
	tb.Span(2, 1, "s0 (10 iters)", "exec", 2*time.Millisecond, 500*time.Microsecond,
		map[string]any{"s": 0, "iters": 10})

	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	evs := doc.TraceEvents
	if len(evs) != 6 {
		t.Fatalf("events = %d, want 6 (4 metadata + 2 spans)", len(evs))
	}
	// Metadata first, in registration order.
	wantMeta := []struct {
		name string
		pid  int
		tid  int
	}{
		{"process_name", 1, 0}, {"thread_name", 1, 1},
		{"process_name", 2, 0}, {"thread_name", 2, 1},
	}
	for i, w := range wantMeta {
		e := evs[i]
		if e.Ph != "M" || e.Name != w.name || e.PID != w.pid || e.TID != w.tid {
			t.Fatalf("metadata[%d] = %+v, want %+v", i, e, w)
		}
	}
	if evs[1].Args["name"] != "ico stages" {
		t.Fatalf("thread_name args = %v", evs[1].Args)
	}
	// Spans: complete events with microsecond timestamps.
	sp := evs[4]
	if sp.Ph != "X" || sp.Name != "lbc" || sp.Cat != "inspect" || sp.Ts != 0 || sp.Dur != 2000 {
		t.Fatalf("inspector span = %+v", sp)
	}
	sp = evs[5]
	if sp.Ph != "X" || sp.Ts != 2000 || sp.Dur != 500 || sp.Args["iters"] != float64(10) {
		t.Fatalf("executor span = %+v", sp)
	}
}
