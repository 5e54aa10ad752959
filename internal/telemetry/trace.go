package telemetry

import (
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Tracer emits structured events as JSON lines to a sink. One event is one
// line: {"ts":"<RFC3339Nano>","ev":"<kind>",<fields...>}. Field order follows
// the Emit call, and encoding is hand-rolled over a reused buffer, so the
// output is deterministic (golden-testable) and an emit costs one buffered
// write and no reflection.
//
// A Tracer is safe for concurrent use: the buffer and sink are guarded by a
// mutex. Events are emitted from the edges of the system — inspection stages,
// cache transitions, session lifecycle — not from per-barrier hot loops, so
// a mutex is the right cost point. A nil *Tracer is valid and drops all
// events, which is how call sites stay unconditional.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	now func() time.Time
	err error
}

// NewTracer constructs a tracer writing to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, now: time.Now, buf: make([]byte, 0, 256)}
}

// SetClock replaces the timestamp source (tests pin it for golden output).
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// Err returns the first sink write error, if any; events after an error are
// dropped (telemetry must never take down the serving path).
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Field is one key/value pair of an event.
type Field struct {
	Key string
	Val any // string, int, int64, bool, or time.Duration
}

// String builds a string field.
func String(k, v string) Field { return Field{k, v} }

// Int builds an integer field.
func Int(k string, v int64) Field { return Field{k, v} }

// Bool builds a boolean field.
func Bool(k string, v bool) Field { return Field{k, v} }

// Dur builds a nanosecond-integer field; the key should end in _ns by the
// naming scheme (DESIGN.md §13).
func Dur(k string, d time.Duration) Field { return Field{k, d} }

// Emit writes one event line. Safe on a nil tracer (no-op).
func (t *Tracer) Emit(ev string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"ts":`...)
	b = appendJSONString(b, t.now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"ev":`...)
	b = appendJSONString(b, ev)
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		switch v := f.Val.(type) {
		case string:
			b = appendJSONString(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case time.Duration:
			b = strconv.AppendInt(b, v.Nanoseconds(), 10)
		case bool:
			b = strconv.AppendBool(b, v)
		default:
			b = appendJSONString(b, "?unsupported")
		}
	}
	b = append(b, '}', '\n')
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// appendJSONString appends s as a JSON string literal, escaping the
// characters JSON requires (quotes, backslash, control bytes) and replacing
// invalid UTF-8 so the output is always a parseable line.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c >= 0x20:
				b = append(b, c)
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\t':
				b = append(b, '\\', 't')
			case c == '\r':
				b = append(b, '\\', 'r')
			default:
				const hex = "0123456789abcdef"
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}
