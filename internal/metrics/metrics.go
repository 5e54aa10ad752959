// Package metrics provides the measurement helpers behind the paper's
// evaluation: GFLOP/s reporting (figure 5), the number-of-executor-runs
// amortization metric (figure 7), and aggregate statistics.
package metrics

import (
	"math"
	"time"
)

// GFlops converts an operation count and duration to GFLOP/s.
func GFlops(flops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(flops) / d.Seconds() / 1e9
}

// NER is the paper's "number of executor runs" to amortize inspection
// (figure 7): inspectorTime / (baselineTime - executorTime), where baseline
// is the sequential kernel-at-a-time execution. A negative NER means the
// executor never beats the baseline, so the inspector is never amortized.
func NER(inspector, baseline, executor time.Duration) float64 {
	den := baseline - executor
	if den == 0 {
		return math.Inf(1)
	}
	return float64(inspector) / float64(den)
}

// Clip bounds v to [lo, hi], mirroring figure 7's clipped axis.
func Clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GeoMean returns the geometric mean of positive values; zero or negative
// entries are skipped.
func GeoMean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// MinDuration returns the smallest positive duration, mirroring the paper's
// "best of" aggregation over baselines.
func MinDuration(ds ...time.Duration) time.Duration {
	best := time.Duration(0)
	for _, d := range ds {
		if d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best
}
