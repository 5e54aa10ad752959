package metrics

import (
	"math"
	"testing"
	"time"
)

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

func TestNER(t *testing.T) {
	// Inspector 100ms, baseline 10ms, executor 5ms: 20 runs amortize.
	if n := NER(100*time.Millisecond, 10*time.Millisecond, 5*time.Millisecond); n != 20 {
		t.Fatalf("NER = %v", n)
	}
	// Executor slower than baseline: negative (never amortized).
	if n := NER(time.Millisecond, time.Millisecond, 2*time.Millisecond); n >= 0 {
		t.Fatalf("NER = %v, want negative", n)
	}
	// Equal baseline and executor: +Inf, not a crash.
	if n := NER(time.Millisecond, time.Millisecond, time.Millisecond); !math.IsInf(n, 1) {
		t.Fatalf("NER = %v, want +Inf", n)
	}
}

func TestClip(t *testing.T) {
	if Clip(50, -10, 30) != 30 || Clip(-20, -10, 30) != -10 || Clip(5, -10, 30) != 5 {
		t.Fatal("clip wrong")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean([]float64{4, 0, -1}); g != 4 {
		t.Fatalf("geomean with non-positives = %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

func TestMinDuration(t *testing.T) {
	if m := MinDuration(3*time.Second, 0, time.Second, 2*time.Second); m != time.Second {
		t.Fatalf("min = %v", m)
	}
	if MinDuration(0, 0) != 0 {
		t.Fatal("all-zero min should be 0")
	}
}
