package telemetry

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time { return t0 }
}

// TestTracerGolden pins the event line shape byte-for-byte: field order
// follows the Emit call, durations encode as nanosecond integers, and the
// line is valid JSON.
func TestTracerGolden(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	tr.SetClock(fixedClock())
	tr.Emit("cache.miss",
		String("fp", "abc123"),
		Dur("dur_ns", 1500*time.Microsecond),
		Int("n", 42),
		Bool("ok", true))
	tr.Emit("session.demote", String("reason", "fault: \"panic\"\n"))

	const want = `{"ts":"2026-01-02T03:04:05Z","ev":"cache.miss","fp":"abc123","dur_ns":1500000,"n":42,"ok":true}
{"ts":"2026-01-02T03:04:05Z","ev":"session.demote","reason":"fault: \"panic\"\n"}
`
	if got := sb.String(); got != want {
		t.Fatalf("trace lines mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit("anything", Int("x", 1)) // must not panic
	if err := tr.Err(); err != nil {
		t.Fatalf("nil tracer Err = %v", err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("sink broken")
}

func TestTracerSinkErrorDropsLaterEvents(t *testing.T) {
	fw := &failWriter{}
	tr := NewTracer(fw)
	tr.Emit("a")
	tr.Emit("b")
	if fw.n != 1 {
		t.Fatalf("writes after first error = %d, want 1 total write", fw.n)
	}
	if tr.Err() == nil {
		t.Fatal("Err should surface the sink failure")
	}
}
