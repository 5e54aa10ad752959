package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "unit_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "units_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"lower: 5% slower is within the bound", lower, steady, []float64{10.5, 10.6, 10.4}, verdictOK},
		{"lower: 20% slower", lower, steady, []float64{12, 12.1, 11.9}, verdictRegressed},
		{"lower: 20% faster", lower, steady, []float64{8, 8.1, 7.9}, verdictOK},
		{"higher: 20% less", higher, steady, []float64{8, 8.1, 7.9}, verdictRegressed},
		{"higher: 20% more", higher, steady, []float64{12, 12.1, 11.9}, verdictOK},
		{"spread wider than the bound", lower, steady, []float64{8, 10, 12, 9, 11}, verdictUnresolved},
		{"regressed wins over noisy", lower, steady, []float64{12, 16, 20, 14, 18}, verdictRegressed},
		{"spread exempt", metricDef{Better: "lower", Bound: 0.10, NoSpread: true}, steady, []float64{8, 10, 12, 9, 11}, verdictOK},
		{"single runs", lower, []float64{10}, []float64{10.5}, verdictOK},
		{"single runs regressed", lower, []float64{10}, []float64{11.5}, verdictRegressed},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func writeRuns(t *testing.T, path string, rate float64, traced bool, edges float64) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		r := newResult()
		r.Attempted, r.Correct = 10, true
		if traced {
			r.set("combos.dag_edges", edges)
		} else {
			r.set("units_per_s", rate+0.01*float64(seed))
		}
		if err := appendRecord(path, record{Meta: meta{Seed: seed, GOMAXPROCS: 2}, Workload: "gs-wide", Trace: traced, result: *r}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, same, slow, moved := filepath.Join(dir, "a"), filepath.Join(dir, "same"), filepath.Join(dir, "slow"), filepath.Join(dir, "moved")
	writeRuns(t, a, 100, false, 0)
	writeRuns(t, a, 0, true, 1000)
	writeRuns(t, same, 98, false, 0)
	writeRuns(t, same, 0, true, 1000)
	writeRuns(t, slow, 70, false, 0)
	writeRuns(t, moved, 100, false, 0)
	writeRuns(t, moved, 0, true, 1001)

	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, same); err != nil || regressed {
		t.Errorf("equal runs: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "units_per_s") || !strings.Contains(out.String(), " ok ") {
		t.Errorf("no ok row for units_per_s:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, slow); err != nil || !regressed {
		t.Errorf("30%% less throughput: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, moved); err != nil || !regressed || !strings.Contains(out.String(), "exact count differs") {
		t.Errorf("a moved exact count: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing file was accepted")
	}
}
