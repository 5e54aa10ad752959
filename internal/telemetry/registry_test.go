package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterSum(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(2)
	c.Add(6)
	if got := c.Value(); got != 11 {
		t.Fatalf("Value = %d, want 11", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %v, want 4", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %v, want -1", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogramForTest([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556 {
		t.Fatalf("Sum = %v, want 556", got)
	}
	// Two observations in (-inf,1], so the 0.4 quantile interpolates inside
	// the first bucket and must not exceed its bound.
	if q := h.Quantile(0.4); q > 1 {
		t.Fatalf("Quantile(0.4) = %v, want <= 1", q)
	}
	if q := h.Quantile(0.99); q < 100 {
		t.Fatalf("Quantile(0.99) = %v, want >= 100", q)
	}
}

func newHistogramForTest(bounds []float64) *Histogram {
	r := NewRegistry()
	return r.Histogram("test_seconds", "test", bounds)
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "help")
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE lines,
// sorted names, histogram bucket/sum/count triplet with +Inf.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("spf_b_total", "B counter.").Add(7)
	r.Gauge("spf_a_gauge", "A gauge.").Set(2.5)
	h := r.Histogram("spf_c_seconds", "C histogram.", []float64{0.1, 1})
	// Binary-exact values so the sum prints without rounding noise.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)
	r.CounterFunc("spf_d_total", "D bridged counter.", func() float64 { return 3 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP spf_a_gauge A gauge.
# TYPE spf_a_gauge gauge
spf_a_gauge 2.5
# HELP spf_b_total B counter.
# TYPE spf_b_total counter
spf_b_total 7
# HELP spf_c_seconds C histogram.
# TYPE spf_c_seconds histogram
spf_c_seconds_bucket{le="0.1"} 1
spf_c_seconds_bucket{le="1"} 2
spf_c_seconds_bucket{le="+Inf"} 3
spf_c_seconds_sum 5.5625
spf_c_seconds_count 3
# HELP spf_d_total D bridged counter.
# TYPE spf_d_total counter
spf_d_total 3
`
	if got := sb.String(); got != want {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(2)
	r.GaugeFunc("b", "b", func() float64 { return 9 })
	s := r.Snapshot()
	if s["a_total"] != 2 || s["b"] != 9 {
		t.Fatalf("Snapshot = %v", s)
	}
}

func TestPublishExpvarNoDuplicatePanic(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("dup_total", "x").Add(1)
	PublishExpvar("telemetry_test_dup", r1)
	r2 := NewRegistry()
	r2.Counter("dup_total", "x").Add(5)
	// Re-publishing the same name must swap the registry, not panic.
	PublishExpvar("telemetry_test_dup", r2)
}

func TestGFlops(t *testing.T) {
	if g := GFlops(2e9, time.Second); g != 2 {
		t.Fatalf("gflops = %v", g)
	}
	if g := GFlops(100, 0); g != 0 {
		t.Fatal("zero duration must give 0")
	}
	if g := GFlops(1e6, time.Millisecond); g != 1 {
		t.Fatalf("gflops = %v", g)
	}
}
