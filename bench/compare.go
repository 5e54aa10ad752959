package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's judgement of one (workload, end-to-end metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of a baseline A with the runs of a candidate B for
// one metric. B has regressed when its median is worse than A's by more than
// bound (a share of A's median). When either side's spread (interquartile
// distance over median, which needs two runs) is wider than the bound the
// runs cannot tell, and the pair is unresolved rather than unchanged.
func judge(d metricDef, a, b []float64) (v verdict, medA, medB, delta float64) {
	medA, medB = median(a), median(b)
	delta = (medB - medA) / medA
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed, medA, medB, delta
	case d.NoSpread:
	case len(a) >= 2 && spread(a) > d.Bound, len(b) >= 2 && spread(b) > d.Bound:
		return verdictUnresolved, medA, medB, delta
	}
	return verdictOK, medA, medB, delta
}

// readRecords reads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Metrics == nil {
			return nil, fmt.Errorf("%s: record without metrics", path)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// values collects metric name over the records of one workload and mode.
func values(recs []record, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// change and the bound with a verdict, then checks that every exact count of
// the traced records is identical for equal seeds. It reports whether
// anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "A (median)", "B (median)", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, false, d.Name), values(b, wl.name, false, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, ma, mb, delta := judge(d, va, vb)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g %+7.1f%% %5.0f%%  %s (n=%d,%d)\n", wl.name, d.Name, ma, mb, 100*delta, 100*d.Bound, v, len(va), len(vb))
		}
		failed := 0
		for _, r := range append(a, b...) {
			if r.Workload == wl.name {
				failed += r.Failed
			}
		}
		if failed > 0 {
			regressed = true
			fmt.Fprintf(w, "%-14s %-18s %d units failed: regressed\n", wl.name, "fail_ratio", failed)
		}
	}
	for _, ra := range a {
		for _, rb := range b {
			if !ra.Trace || !rb.Trace || ra.Workload != rb.Workload || ra.Meta.Seed != rb.Meta.Seed || ra.Meta.GOMAXPROCS != rb.Meta.GOMAXPROCS {
				continue
			}
			for _, d := range perLayer {
				if d.Exact && ra.Metrics[d.Name].Value != rb.Metrics[d.Name].Value {
					regressed = true
					fmt.Fprintf(w, "%-14s %-24s seed %d: %v != %v: exact count differs\n", ra.Workload, d.Name, ra.Meta.Seed, ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value)
				}
			}
		}
	}
	return regressed, nil
}
