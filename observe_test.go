package sparsefusion

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sparsefusion/internal/kernels"
	"sparsefusion/internal/telemetry"
)

// traceEvents parses a tracer sink into the emitted event names plus decoded
// lines.
func traceEvents(t *testing.T, buf *bytes.Buffer) ([]string, []map[string]any) {
	t.Helper()
	var names []string
	var lines []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		names = append(names, m["ev"].(string))
		lines = append(lines, m)
	}
	return names, lines
}

func hasEvent(names []string, ev string) bool {
	for _, n := range names {
		if n == ev {
			return true
		}
	}
	return false
}

func TestTracerSeesInspectionAndLifecycle(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	m := RandomSPD(300, 4, 21)
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.NewSession(); err != nil {
		t.Fatal(err)
	}
	names, lines := traceEvents(t, &buf)
	for _, want := range []string{"inspect.dag_build", "inspect.ico", "inspect.compile", "inspect.relayout", "session.new"} {
		if !hasEvent(names, want) {
			t.Fatalf("missing %q in trace, got %v", want, names)
		}
	}
	// The ico event must carry the stage breakdown and the dag_build event
	// the problem shape.
	for _, l := range lines {
		switch l["ev"] {
		case "inspect.ico":
			for _, f := range []string{"setup_ns", "lbc_ns", "pairing_ns", "merge_ns", "slack_ns", "pack_ns", "s_partitions"} {
				if _, ok := l[f]; !ok {
					t.Fatalf("inspect.ico missing %q: %v", f, l)
				}
			}
		case "inspect.dag_build":
			if l["n"] != float64(300) {
				t.Fatalf("dag_build n = %v", l["n"])
			}
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerReportsScatterRedirects: the relayout event of a scatter chain
// says what running without atomics costs — how many of the scatter updates
// go to private slots and how many adds fold them back. It also counts the
// loops that read another loop's stream: none for TRSV-MV, whose loops read
// two matrices, and on a reordered grid TRSV-TRSV's second solve, whose runs
// are the first one's.
func TestTracerReportsScatterRedirects(t *testing.T) {
	m, _, err := RandomSPD(600, 6, 23).Reorder()
	if err != nil {
		t.Fatal(err)
	}
	relayoutEvent := func(c Combination, m *Matrix) map[string]any {
		var buf bytes.Buffer
		if _, err := NewOperation(c, m, Options{Threads: 4, Tracer: NewTracer(&buf)}); err != nil {
			t.Fatal(err)
		}
		_, lines := traceEvents(t, &buf)
		for _, l := range lines {
			if l["ev"] == "inspect.relayout" {
				return l
			}
		}
		t.Fatal("no inspect.relayout event")
		return nil
	}
	l := relayoutEvent(TrsvMv, m)
	get := func(k string) float64 {
		v, ok := l[k].(float64)
		if !ok {
			t.Fatalf("inspect.relayout missing %q: %v", k, l)
		}
		return v
	}
	entries, red := get("scatter_entries"), get("scatter_redirected")
	slots, folds := get("scatter_slots"), get("scatter_fold_entries")
	if entries != float64(m.NNZ()) {
		t.Fatalf("scatter_entries = %v, want the %d nonzeros SpMV-CSC scatters", entries, m.NNZ())
	}
	if red <= 0 || red > entries || folds <= 0 || folds > red || slots <= 0 || slots > folds {
		t.Fatalf("implausible scatter counts: %v", l)
	}
	if get("shared_loops") != 0 {
		t.Fatalf("TRSV-MV's loops share a stream: %v", l)
	}
	l = relayoutEvent(TrsvTrsv, mustReorder(t, Laplacian2D(30)))
	if get("shared_loops") != 1 || get("scatter_entries") != 0 {
		t.Fatalf("TRSV-TRSV's relayout event: %v, want one loop reading the other's stream", l)
	}
}

func TestTracerSeesCacheTransitions(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sc := NewScheduleCache(CacheConfig{Tracer: tr})
	m := RandomSPD(300, 4, 22)
	opts := Options{Threads: 4, Cache: sc, Tracer: tr}
	if _, err := NewOperation(TrsvTrsv, m, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOperation(TrsvTrsv, m, opts); err != nil {
		t.Fatal(err)
	}
	names, lines := traceEvents(t, &buf)
	if !hasEvent(names, "cache.miss") || !hasEvent(names, "cache.hit") {
		t.Fatalf("want cache.miss then cache.hit, got %v", names)
	}
	// Every open says what it paid: the miss ends in op.open{cache=miss} after
	// its inspection events, the hit in op.open{cache=hit} — same fingerprint —
	// with no DAG build and no ICO in between.
	var opens []map[string]any
	inspected := 0 // inspect.dag_build / inspect.ico events since the last op.open
	for _, l := range lines {
		switch l["ev"] {
		case "cache.miss":
			if fp, _ := l["fp"].(string); len(fp) != 12 {
				t.Fatalf("cache.miss fingerprint prefix %q, want 12 hex chars", fp)
			}
			if d, _ := l["dur_ns"].(float64); d <= 0 {
				t.Fatalf("cache.miss without build duration: %v", l)
			}
		case "inspect.dag_build", "inspect.ico":
			inspected++
		case "op.open":
			if d, _ := l["dur_ns"].(float64); d <= 0 {
				t.Fatalf("op.open without a duration: %v", l)
			}
			if want := map[string]int{"miss": 2, "hit": 0}[l["cache"].(string)]; inspected != want {
				t.Fatalf("%d dag_build/ico events before %v, want %d", inspected, l, want)
			}
			opens, inspected = append(opens, l), 0
		}
	}
	if len(opens) != 2 || opens[0]["cache"] != "miss" || opens[1]["cache"] != "hit" {
		t.Fatalf("want op.open{cache=miss} then op.open{cache=hit}, got %v", opens)
	}
	if fp, _ := opens[1]["fp"].(string); len(fp) != 12 || fp != opens[0]["fp"] {
		t.Fatalf("op.open fingerprint prefixes %v and %v, want one 12-hex-char prefix", opens[0]["fp"], fp)
	}
	if _, err := NewOperation(TrsvTrsv, m, Options{Threads: 4, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	_, lines = traceEvents(t, &buf)
	if last := lines[len(lines)-1]; last["ev"] != "op.open" || last["cache"] != "off" {
		t.Fatalf("an open without a cache must end in op.open{cache=off}, got %v", last)
	}
}

func TestTracerSeesRunFaultDemotions(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	op, err := NewOperation(TrsvTrsv, RandomSPD(300, 4, 23), Options{Threads: 4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	prog := op.runner.Program()
	prog.Iters[len(prog.Iters)-1] = kernels.PackIter(0, 1<<20)
	if _, err := op.Run(); err != nil {
		t.Fatalf("ladder did not absorb the fault: %v", err)
	}
	names, lines := traceEvents(t, &buf)
	demotes := 0
	for i, n := range names {
		if n != "session.demote" {
			continue
		}
		demotes++
		l := lines[i]
		if l["from"] == "" || l["to"] == "" || l["reason"] == "" {
			t.Fatalf("demote event missing fields: %v", l)
		}
	}
	if demotes != 2 {
		t.Fatalf("session.demote events = %d, want 2 (packed->compiled->sequential)", demotes)
	}
}

// newServedFixture builds a server with an attached cache and runs solves
// through it.
func newServedFixture(t *testing.T, solves int) (*Server, *Operation) {
	t.Helper()
	sc := NewScheduleCache(CacheConfig{})
	m := RandomSPD(300, 4, 24)
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 2, Width: 2, Cache: sc})
	t.Cleanup(sv.Close)
	for i := 0; i < solves; i++ {
		if _, err := op.RunOn(sv); err != nil {
			t.Fatal(err)
		}
	}
	return sv, op
}

func TestMetricsEndpoint(t *testing.T) {
	sv, _ := newServedFixture(t, 3)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"spf_solves_total 3",
		"spf_cache_hits_total",
		"spf_cache_misses_total 1",
		"spf_cache_waits_total",
		"spf_serve_admitted_total 3",
		"spf_serve_queue_depth 0",
		"spf_demotions_total 0",
		"spf_solve_seconds_bucket{le=\"+Inf\"} 3",
		"spf_solve_seconds_count 3",
		"# TYPE spf_solve_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzAndPprofEndpoints(t *testing.T) {
	sv, _ := newServedFixture(t, 2)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(res.Body).Decode(&snap)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != "ok" || snap.Solves != 2 || snap.Serve.Admitted != 2 {
		t.Fatalf("healthz snapshot %+v", snap)
	}
	if snap.Cache == nil || snap.Cache.Misses != 1 {
		t.Fatalf("healthz cache stats %+v", snap.Cache)
	}
	if snap.SolveP50 <= 0 || snap.SolveP99 < snap.SolveP50 {
		t.Fatalf("latency quantiles p50=%v p99=%v", snap.SolveP50, snap.SolveP99)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/vars"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("%s status %d", path, res.StatusCode)
		}
	}
}

// TestHealthzKeysPinned pins the JSON keys /healthz serves at the top level
// and in its serve and cache sections: decoding into Snapshot would drop a
// renamed key without a word, and monitoring reads these names.
func TestHealthzKeysPinned(t *testing.T) {
	sv, _ := newServedFixture(t, 1)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(res.Body).Decode(&doc)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]any) string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	section := func(name string) map[string]any {
		m, ok := doc[name].(map[string]any)
		if !ok {
			t.Fatalf("/healthz %q is %T, want an object", name, doc[name])
		}
		return m
	}
	for _, c := range []struct {
		name string
		got  map[string]any
		want string
	}{
		{"top level", doc, "cache demotions serve solve_errors solve_p50_ns solve_p99_ns solves status"},
		{"serve", section("serve"), "active admitted deadline_exceeded effective_width max_concurrent max_queue pools_replaced queued shed waiting width"},
		{"cache", section("cache"), "DiskErrors DiskHits DiskQuarantines Entries Evictions Hits Inflight InflightPeak MaxEntries Misses Waits"},
	} {
		if got := keys(c.got); got != c.want {
			t.Errorf("/healthz %s keys:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

func TestSnapshotHarvestsDemotions(t *testing.T) {
	sc := NewScheduleCache(CacheConfig{})
	op, err := NewOperation(TrsvTrsv, RandomSPD(300, 4, 25), Options{Threads: 2, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2, Cache: sc})
	defer sv.Close()
	prog := op.runner.Program()
	prog.Iters[len(prog.Iters)-1] = kernels.PackIter(0, 1<<20)
	if _, err := op.RunOn(sv); err != nil {
		t.Fatalf("ladder did not absorb the fault: %v", err)
	}
	snap := sv.Snapshot()
	if snap.Status != "degraded" {
		t.Fatalf("status %q after demotion, want degraded", snap.Status)
	}
	if snap.Demotions != 2 || len(snap.Demoted) != 2 {
		t.Fatalf("demotions=%d records=%d, want 2/2", snap.Demotions, len(snap.Demoted))
	}
	rec := snap.Demoted[0]
	if rec.Session == 0 || rec.From != ModePacked || rec.To != ModeCompiled || rec.Reason == "" || rec.Time.IsZero() {
		t.Fatalf("demotion record %+v", rec)
	}
	// A second solve must not re-harvest the same demotions.
	if _, err := op.RunOn(sv); err != nil {
		t.Fatal(err)
	}
	if again := sv.Snapshot(); again.Demotions != 2 {
		t.Fatalf("demotions re-harvested: %d", again.Demotions)
	}
}

// TestFactorCombosServeHealthy: the factor combinations cannot pack, so each
// opens on the compiled rung with one open-time demotion in its Health. A
// served run takes no demotion, so the server stays "ok" and counts none.
func TestFactorCombosServeHealthy(t *testing.T) {
	for _, c := range []Combination{DscalIlu0, Ic0Trsv, Ilu0Trsv, DscalIc0} {
		op, err := NewOperation(c, Laplacian2D(20), Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if h := op.Health(); h.Mode != ModeCompiled || len(h.Demotions) != 1 {
			t.Fatalf("%s: opened as %+v, want compiled with its open-time demotion", c, h)
		}
		sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 2})
		if _, err := op.RunOn(sv); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		snap := sv.Snapshot()
		sv.Close()
		if snap.Status != "ok" || snap.Demotions != 0 || len(snap.Demoted) != 0 {
			t.Fatalf("%s: status %q, %d demotions %v after a healthy run", c, snap.Status, snap.Demotions, snap.Demoted)
		}
	}
}

// TestRegistryRaceUnderServing is the -race stress: worker-width goroutines
// hammer counters, gauges and histograms while fused solves run
// through the server and concurrent scrapes read /metrics and Snapshot.
func TestRegistryRaceUnderServing(t *testing.T) {
	sv, op := newServedFixture(t, 1)
	sess, err := op.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c := reg.Counter("stress_total", "stress")
	g := reg.Gauge("stress_gauge", "stress")
	h := reg.Histogram("stress_seconds", "stress", nil)

	const width = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	// Scrapers: Prometheus text, registry snapshot, server snapshot.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				reg.Snapshot()
				sv.Snapshot()
			}
		}()
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := sess.RunOn(sv); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("stress goroutines recorded nothing")
	}
}
