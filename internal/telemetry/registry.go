// Package telemetry is the measurement substrate of the serving stack: a
// lock-free metrics registry with Prometheus-text and expvar export, a
// structured JSON event tracer and a Chrome trace_event timeline builder.
//
// The package is a leaf — it imports only the standard library — so any
// layer (exec, cache, serve, the facade, the CLIs) can feed it without
// import cycles. Hot paths pay one atomic operation per increment and zero
// allocations; everything that allocates (registration, export, snapshots)
// happens off the hot path.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The increment path is
// lock-free and allocation-free.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value loads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. Set/Add are lock-free.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d with a CAS loop (contention on gauges is rare; the loop is
// allocation-free either way).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value loads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds in the observed unit (seconds for latencies); counts and the sum are
// atomics, so Observe is lock-free and allocation-free.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf bucket is implicit
	counts     []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits of the sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~20) and the scan is branch-
	// predictable, beating binary search at this size.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0..1) from the bucket counts, by
// linear interpolation inside the covering bucket; an estimate for
// dashboards, not a guarantee.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	lower := 0.0
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if float64(seen)+float64(c) >= rank {
			if c == 0 {
				return b
			}
			frac := (rank - float64(seen)) / float64(c)
			return lower + (b-lower)*frac
		}
		seen += c
		lower = b
	}
	return lower
}

// DefBuckets are the default latency bounds in seconds: 10µs to 10s,
// roughly exponential — wide enough for a packed microsolve and a cold
// inspection alike.
var DefBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10,
}

// metric is the export-side view of one registered instrument.
type metric struct {
	name, help, typ string
	write           func(w io.Writer, name string) error
}

// Registry holds named instruments. Registration (Counter, Gauge, ...) takes
// a mutex and may allocate; it happens at construction time. The instruments
// themselves are lock-free. Get-or-create semantics make registration
// idempotent: asking twice for one name returns one instrument.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	insts   map[string]any
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric), insts: make(map[string]any)}
}

// register stores m under name, panicking if the name is taken by a
// different instrument kind (a naming bug, caught at startup).
func (r *Registry) register(name string, m *metric, inst any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.insts[name]; ok {
		if fmt.Sprintf("%T", prev) != fmt.Sprintf("%T", inst) {
			panic("telemetry: metric " + name + " re-registered as a different kind")
		}
		return prev
	}
	r.metrics[name] = m
	r.insts[name] = inst
	return inst
}

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	m := &metric{name: name, help: help, typ: "counter", write: func(w io.Writer, n string) error {
		_, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(float64(c.Value())))
		return err
	}}
	return r.register(name, m, c).(*Counter)
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	m := &metric{name: name, help: help, typ: "gauge", write: func(w io.Writer, n string) error {
		_, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(g.Value()))
		return err
	}}
	return r.register(name, m, g).(*Gauge)
}

// funcInst wraps a callback instrument so re-registration detection works.
type funcInst struct{ fn func() float64 }

// CounterFunc registers a counter whose value is read from fn at export time
// — the bridge for subsystems that already keep their own atomic counters
// (cache stats, admission stats) without double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := &funcInst{fn}
	m := &metric{name: name, help: help, typ: "counter", write: func(w io.Writer, n string) error {
		_, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(f.fn()))
		return err
	}}
	r.register(name, m, f)
}

// GaugeFunc registers a gauge evaluated at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := &funcInst{fn}
	m := &metric{name: name, help: help, typ: "gauge", write: func(w io.Writer, n string) error {
		_, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(f.fn()))
		return err
	}}
	r.register(name, m, f)
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds (DefBuckets when nil) if absent.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
	m := &metric{name: name, help: help, typ: "histogram", write: func(w io.Writer, n string) error {
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.count.Load()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", n, h.count.Load())
		return err
	}}
	return r.register(name, m, h).(*Histogram)
}

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4), in name order so output is stable for golden tests
// and diff-friendly scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()
	for _, m := range ms {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		if err := m.write(w, m.name); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the scalar instruments (counters, gauges, funcs) as a
// name->value map, plus histogram counts as <name>_count/_sum — the payload
// behind the expvar bridge and Snapshot-style health endpoints.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	insts := make(map[string]any, len(r.insts))
	for n, in := range r.insts {
		insts[n] = in
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(insts))
	for n, in := range insts {
		switch v := in.(type) {
		case *Counter:
			out[n] = float64(v.Value())
		case *Gauge:
			out[n] = v.Value()
		case *funcInst:
			out[n] = v.fn()
		case *Histogram:
			out[n+"_count"] = float64(v.Count())
			out[n+"_sum"] = v.Sum()
		}
	}
	return out
}

// formatFloat renders a float the way Prometheus expects: integers without
// an exponent, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// GFlops converts an operation count and duration to GFLOP/s.
func GFlops(flops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(flops) / d.Seconds() / 1e9
}
