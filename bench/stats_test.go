package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	// Nearest rank: p90 of 1..100 is 90, with exactly ten samples beyond it.
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// The reference values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 1})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3})
	if !near(q1, 9.9) || !near(q3, 10.3) {
		t.Errorf("quartiles(7 samples) = %v, %v, want 9.9, 10.3", q1, q3)
	}
	if got := spread([]float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3}); !near(got, 0.4/10.1) {
		t.Errorf("spread = %v, want %v", got, 0.4/10.1)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := weightedGeomean([]float64{2, 8}, []float64{3, 1}); !near(got, math.Pow(2*2*2*8, 0.25)) {
		t.Errorf("weighted geomean = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	ms := time.Millisecond
	// unit [0,100] with children [10,40] and an overlapping pair [50,70], [60,90].
	tr.spans = []span{
		{Name: "bench.unit", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "core.ico", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "exec.run", Parent: 0, Start: 50 * ms, End: 70 * ms},
		{Name: "exec.run", Parent: 0, Start: 60 * ms, End: 90 * ms},
		{Name: "core.pack", Parent: 1, Start: 10 * ms, End: 25 * ms},
		{Name: "core.never_closed", Parent: 0, Start: 95 * ms, End: -1},
	}
	by := tr.byName()
	if got := by["bench.unit"].Self; got != 30*ms { // 100 - 30 - 40 (union of the overlap)
		t.Errorf("unit self time = %v, want 30ms", got)
	}
	if got := by["core.ico"]; got.Self != 15*ms || got.Total != 30*ms {
		t.Errorf("ico = %+v, want self 15ms total 30ms", got)
	}
	if got := by["exec.run"]; got.Count != 2 || got.Total != 50*ms || got.Self != 50*ms {
		t.Errorf("exec.run = %+v", got)
	}
	if _, ok := by["core.never_closed"]; ok {
		t.Error("an unclosed span was counted")
	}
	if got := tr.meanMS("exec.run"); got != 25 {
		t.Errorf("mean exec.run = %v ms, want 25", got)
	}
	var off *tracer
	if id := off.begin("x", -1, 0, 0); id != -1 || off.count() != 0 {
		t.Error("a nil tracer recorded a span")
	}
	off.end(-1)
}
