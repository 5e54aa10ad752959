package sparsefusion

import (
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/serve"
	"sparsefusion/internal/telemetry"
)

// This file is the observability surface of the serving stack: structured
// event tracing (Tracer), the Server-attached metrics registry with its
// /metrics + /healthz + pprof HTTP handler, and the coherent Snapshot that
// aggregates cache, admission, and session-health state. The measurement
// substrate lives in internal/telemetry; this file wires it to the facade
// types. DESIGN.md §13 documents the architecture, the metric naming scheme,
// and the overhead budget.

// Tracer emits structured JSON events (one object per line) describing what
// the system does: inspector stages, cache transitions, session lifecycle,
// admission. Attach one via Options.Tracer, CacheConfig.Tracer, or
// ServerConfig.Tracer. A nil *Tracer is valid everywhere and drops events,
// so call sites pay one nil check when tracing is off.
//
// Events share the shape {"ts":..., "ev":"<subsystem>.<transition>", ...}
// with duration fields suffixed _ns; the event catalog is in DESIGN.md §13.
type Tracer struct {
	t *telemetry.Tracer
}

// NewTracer constructs a tracer writing JSON lines to w. The tracer is safe
// for concurrent use; writes are serialized and short, but a slow sink slows
// the paths that emit into it — hand it a buffered writer for hot use.
func NewTracer(w io.Writer) *Tracer { return &Tracer{t: telemetry.NewTracer(w)} }

// Err returns the first sink write error; after one, events are dropped.
func (tr *Tracer) Err() error {
	if tr == nil {
		return nil
	}
	return tr.t.Err()
}

// raw returns the underlying emitter, nil-safe.
func (tr *Tracer) raw() *telemetry.Tracer {
	if tr == nil {
		return nil
	}
	return tr.t
}

// nextStateID hands out process-unique ids for operations and sessions, so
// demotion records and lifecycle events are attributable.
var nextStateID atomic.Int64

// DemotionRecord is one observed executor-ladder demotion, attributed to the
// operation or session that took it. Records surface in Server.Snapshot and
// /healthz; the typed cause is the demotion's Reason.
type DemotionRecord struct {
	// Session is the process-unique id of the operation or session.
	Session int64 `json:"session"`
	// From and To are the ladder rungs.
	From ExecMode `json:"from"`
	To   ExecMode `json:"to"`
	// Reason is the typed cause (the error string of the fault or the
	// artifact-build failure that forced the step down).
	Reason string `json:"reason"`
	// Time is when the server observed the demotion.
	Time time.Time `json:"time"`
}

// demLogCap bounds the per-server demotion log; beyond it the oldest records
// are dropped (the counters keep the true total).
const demLogCap = 256

// Snapshot is one coherent view of a Server's state: admission counters, the
// attached cache's statistics, solve-latency aggregates, and the per-session
// demotion records observed on served solves — the payload behind /healthz
// and the single struct monitoring should poll instead of three accessors.
type Snapshot struct {
	// Status is "ok", or "degraded" once any served run demoted its session
	// or errored. A session that opened on a lower rung (the factor chains
	// cannot pack) is not degraded: that demotion is in its Health only.
	Status string `json:"status"`
	// Serve is the admission state.
	Serve ServerStats `json:"serve"`
	// Cache is the attached ScheduleCache's statistics; nil when the server
	// was built without ServerConfig.Cache.
	Cache *CacheStats `json:"cache,omitempty"`
	// Solves / SolveErrors count served executions; Demotions counts ladder
	// steps served runs took.
	Solves      int64 `json:"solves"`
	SolveErrors int64 `json:"solve_errors"`
	Demotions   int64 `json:"demotions"`
	// SolveP50 / SolveP99 are latency estimates from the histogram buckets.
	SolveP50 time.Duration `json:"solve_p50_ns"`
	SolveP99 time.Duration `json:"solve_p99_ns"`
	// Demoted lists the most recent demotion records (bounded; the counter
	// above is the true total).
	Demoted []DemotionRecord `json:"demoted,omitempty"`
}

// serverObs is the Server's telemetry half: the registry, the hot-path
// instruments, and the bounded demotion log.
type serverObs struct {
	reg       *telemetry.Registry
	solves    *telemetry.Counter
	errors    *telemetry.Counter
	demotions *telemetry.Counter
	barriers  *telemetry.Counter
	cancels   *telemetry.Counter
	watchdogs *telemetry.Counter
	chainLen  *telemetry.Gauge
	latency   *telemetry.Histogram
	queueWait *telemetry.Histogram
	barrier   *telemetry.Histogram

	mu     sync.Mutex
	demLog []DemotionRecord
}

// newServerObs builds the registry and registers every serving metric.
// Subsystems that keep their own lock-free counters (cache, admission) are
// bridged with read-at-scrape funcs instead of double counting.
func newServerObs(s *serve.Server, sc *ScheduleCache) *serverObs {
	reg := telemetry.NewRegistry()
	o := &serverObs{
		reg:       reg,
		solves:    reg.Counter("spf_solves_total", "Fused executions served (RunOn)."),
		errors:    reg.Counter("spf_solve_errors_total", "Served executions that returned an error."),
		demotions: reg.Counter("spf_demotions_total", "Executor-ladder demotions taken by served runs."),
		barriers:  reg.Counter("spf_barriers_total", "Executor barriers (s-partition synchronizations) crossed by served solves — the quantity chain composition divides by ~k."),
		cancels:   reg.Counter("spf_cancels_total", "Served runs cancelled in flight (returned *CancelledError at an s-partition boundary)."),
		watchdogs: reg.Counter("spf_watchdog_trips_total", "Barrier-watchdog trips on served runs: a worker failed to arrive within the bound and the worker set was retired."),
		chainLen:  reg.Gauge("spf_chain_length", "Kernels fused into the most recently served operation's schedule (2 for pair combinations, k for composed chains)."),
		latency:   reg.Histogram("spf_solve_seconds", "Served solve latency (admission wait included).", nil),
		queueWait: reg.Histogram("spf_queue_wait_seconds", "Time queued admissions waited for a worker set.", nil),
		barrier:   reg.Histogram("spf_barrier_wait_seconds", "Per-solve load-imbalance cost at executor barriers (slowest worker minus mean, summed over s-partitions).", nil),
	}
	reg.CounterFunc("spf_serve_admitted_total", "Executions that checked out a worker set.",
		func() float64 { return float64(s.Stats().Admitted) })
	reg.CounterFunc("spf_serve_queued_total", "Admissions that had to wait for a worker set.",
		func() float64 { return float64(s.Stats().Queued) })
	reg.GaugeFunc("spf_serve_active", "Executions in flight right now.",
		func() float64 { return float64(s.Stats().Active) })
	reg.GaugeFunc("spf_serve_queue_depth", "Requests blocked for a worker set right now.",
		func() float64 { return float64(s.Stats().Waiting) })
	reg.CounterFunc("spf_queue_shed_total", "Requests rejected with ErrServerOverloaded because the admission queue was at its bound.",
		func() float64 { return float64(s.Stats().Shed) })
	reg.CounterFunc("spf_deadline_exceeded_total", "Requests whose context fired while still queued for a worker set (the run never started).",
		func() float64 { return float64(s.Stats().DeadlineExceeded) })
	reg.CounterFunc("spf_pools_replaced_total", "Worker sets retired after a barrier-watchdog trip and replaced with fresh ones.",
		func() float64 { return float64(s.Stats().PoolsReplaced) })
	reg.GaugeFunc("spf_serve_max_concurrent", "Admission bound K (worker-set fleet size).",
		func() float64 { return float64(s.Stats().MaxConcurrent) })
	reg.GaugeFunc("spf_serve_width", "Configured worker width of each pooled worker set.",
		func() float64 { return float64(s.Stats().Width) })
	reg.GaugeFunc("spf_serve_width_effective", "Effective worker width right now: min(configured width, GOMAXPROCS).",
		func() float64 { return float64(s.Stats().EffectiveWidth) })
	if sc != nil {
		st := func() CacheStats { return sc.Stats() }
		reg.CounterFunc("spf_cache_hits_total", "Schedule-cache lock-free hits.",
			func() float64 { return float64(st().Hits) })
		reg.CounterFunc("spf_cache_misses_total", "Schedule-cache inspections actually run.",
			func() float64 { return float64(st().Misses) })
		reg.CounterFunc("spf_cache_waits_total", "Requests coalesced onto another tenant's in-flight inspection (singleflight).",
			func() float64 { return float64(st().Waits) })
		reg.CounterFunc("spf_cache_evictions_total", "In-memory cache entries evicted by the size bound.",
			func() float64 { return float64(st().Evictions) })
		reg.CounterFunc("spf_cache_disk_hits_total", "Misses served from the disk tier.",
			func() float64 { return float64(st().DiskHits) })
		reg.CounterFunc("spf_cache_disk_errors_total", "Unreadable, mismatched, or unwritable disk-tier files.",
			func() float64 { return float64(st().DiskErrors) })
		reg.CounterFunc("spf_cache_disk_quarantines_total", "Corrupt or invalid disk-tier files renamed to .bad so their fingerprints rebuild.",
			func() float64 { return float64(st().DiskQuarantines) })
		reg.GaugeFunc("spf_cache_entries", "Published in-memory cache entries.",
			func() float64 { return float64(st().Entries) })
		reg.GaugeFunc("spf_cache_inflight", "Inspections in flight.",
			func() float64 { return float64(st().Inflight) })
	}
	return o
}

// observeSolve records one served execution and harvests the demotions runs
// took since the last harvest. Open-time demotions stay in Health only.
func (sv *Server) observeSolve(e *execState, d time.Duration, rep Report, runErr error) {
	o := sv.obs
	o.solves.Add(1)
	o.latency.Observe(d.Seconds())
	o.barrier.Observe(rep.BarrierWait.Seconds())
	o.barriers.Add(int64(rep.Barriers))
	o.chainLen.Set(float64(len(e.inst.Kernels)))
	if runErr != nil {
		o.errors.Add(1)
		var c *CancelledError
		var xe *ExecError
		switch {
		case errors.As(runErr, &c):
			o.cancels.Add(1)
		case errors.As(runErr, &xe) && xe.Watchdog:
			o.watchdogs.Add(1)
		}
	}
	var fresh []Demotion
	e.mu.Lock()
	if n := len(e.demotions); n > e.demSeen {
		fresh = append(fresh, e.demotions[e.demSeen:]...)
		e.demSeen = n
	}
	e.mu.Unlock()
	if len(fresh) == 0 {
		return
	}
	o.demotions.Add(int64(len(fresh)))
	now := time.Now()
	o.mu.Lock()
	for _, dm := range fresh {
		if len(o.demLog) == demLogCap {
			copy(o.demLog, o.demLog[1:])
			o.demLog = o.demLog[:demLogCap-1]
		}
		o.demLog = append(o.demLog, DemotionRecord{
			Session: e.id, From: dm.From, To: dm.To, Reason: dm.Reason, Time: now,
		})
	}
	o.mu.Unlock()
}

// Snapshot returns one coherent view of the server: admission counters,
// attached-cache statistics, solve aggregates, and recent per-session
// demotion records. Counters are read at one point in time but without a
// global lock, so a snapshot taken under load is consistent to within the
// in-flight operations — the right trade for a monitoring endpoint.
func (sv *Server) Snapshot() Snapshot {
	o := sv.obs
	snap := Snapshot{
		Status:      "ok",
		Serve:       sv.Stats(),
		Solves:      o.solves.Value(),
		SolveErrors: o.errors.Value(),
		Demotions:   o.demotions.Value(),
		SolveP50:    time.Duration(o.latency.Quantile(0.50) * 1e9),
		SolveP99:    time.Duration(o.latency.Quantile(0.99) * 1e9),
	}
	if sv.cache != nil {
		cs := sv.cache.Stats()
		snap.Cache = &cs
	}
	o.mu.Lock()
	if len(o.demLog) > 0 {
		snap.Demoted = append([]DemotionRecord(nil), o.demLog...)
	}
	o.mu.Unlock()
	if snap.Demotions > 0 || snap.SolveErrors > 0 {
		snap.Status = "degraded"
	}
	return snap
}

// Handler returns the server's HTTP observability surface:
//
//	/metrics        Prometheus text exposition of every serving metric
//	/healthz        JSON Snapshot (aggregated session health; 200 always —
//	                degradation is in the body, the endpoint itself is up)
//	/debug/pprof/*  the standard Go profiler endpoints
//	/debug/vars     expvar, including the registry bridge
//
// Mount it wherever the process serves HTTP:
//
//	go http.ListenAndServe(":9090", server.Handler())
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = sv.obs.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sv.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// hexPrefix renders the first 12 hex digits of a fingerprint for event
// payloads — enough to correlate, short enough to read.
func hexPrefix(k cache.Key) string {
	s := k.String()
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// cacheEventHook adapts cache events to tracer lines.
func cacheEventHook(tr *Tracer) func(cache.Event) {
	t := tr.raw()
	return func(ev cache.Event) {
		fields := make([]telemetry.Field, 0, 3)
		fields = append(fields, telemetry.String("fp", hexPrefix(ev.Key)))
		if ev.Dur > 0 {
			fields = append(fields, telemetry.Dur("dur_ns", ev.Dur))
		}
		if ev.Err != "" {
			fields = append(fields, telemetry.String("err", ev.Err))
		}
		t.Emit("cache."+string(ev.Kind), fields...)
	}
}
