package sparsefusion

import (
	"context"
	"runtime"
	"time"

	"sparsefusion/internal/serve"
	"sparsefusion/internal/telemetry"
)

// ServerConfig tunes a Server.
type ServerConfig struct {
	// MaxConcurrent is the admission bound K: at most K fused executions run
	// at once; excess requests queue in arrival order. <= 0 sizes the fleet
	// from the machine — GOMAXPROCS/Width worker sets (at least 1), so the
	// fleet's spinning workers roughly cover the cores without
	// oversubscribing them.
	MaxConcurrent int
	// Width is the worker width of each of the K persistent worker sets; it
	// should cover the widest schedule the server will execute (wider
	// schedules still run, on per-call worker sets). <= 0 selects GOMAXPROCS.
	Width int
	// MaxQueue bounds how many requests may wait for a worker set at once;
	// a request arriving past the bound is shed immediately with
	// ErrServerOverloaded instead of queueing behind work it would only slow
	// down. <= 0 means unbounded (the classic behavior).
	MaxQueue int
	// Watchdog is the barrier-watchdog bound stamped onto every worker set in
	// the fleet: a worker that fails to arrive at an s-partition barrier
	// within it surfaces as a typed error (ExecError.Watchdog), the worker
	// set is retired and replaced, and the next request gets a fresh one.
	// 0 disables the bound.
	Watchdog time.Duration
	// Cache, when non-nil, attaches a ScheduleCache so the server's metrics
	// registry, Snapshot, and /healthz report cache statistics alongside the
	// serving counters.
	Cache *ScheduleCache
	// Tracer, when non-nil, receives admission lifecycle events
	// (serve.admit with queueing outcome and wait time).
	Tracer *Tracer
}

// Server bounds concurrent fused executions. The executor's worker sets spin
// while a run is in flight, so unbounded concurrent clients would stack
// spinning goroutines far past the machine's cores; a Server owns
// MaxConcurrent persistent worker sets used as both semaphore and free-list,
// capping spinning workers at MaxConcurrent*Width regardless of offered
// load and sparing each admitted run the worker-spawn latency. Its worker
// sets are never held spinning between runs (a solver holds only the one it
// starts for one solve), and an idle worker set keeps nothing of the last run
// it served, so a session that ran on the server can be collected.
//
// Serve traffic with Session.RunOn(server) (or Operation.RunOn); Close the
// server when done.
type Server struct {
	s     *serve.Server
	obs   *serverObs
	cache *ScheduleCache
	tr    *Tracer
}

// ErrServerClosed is returned by RunOn after the server is closed.
var ErrServerClosed = serve.ErrClosed

// ErrServerOverloaded is returned by RunOnContext when every worker set is
// checked out and the admission queue is at its ServerConfig.MaxQueue bound:
// the request is shed immediately instead of queueing.
var ErrServerOverloaded = serve.ErrOverloaded

// ErrDeadlineExceeded is returned by RunOnContext when the request's context
// fired while it was still queued for a worker set — the run never started,
// so retrying elsewhere is always safe. errors.Is(err,
// context.DeadlineExceeded) also holds when the context carried a deadline.
var ErrDeadlineExceeded = serve.ErrDeadlineExceeded

// NewServer starts a server; ServerConfig{} is usable (one worker set of
// GOMAXPROCS workers). The server always carries a metrics registry
// (Handler serves it at /metrics); attach ServerConfig.Cache to include the
// cache's statistics in it, and ServerConfig.Tracer for admission events.
func NewServer(cfg ServerConfig) *Server {
	w := cfg.Width
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	sv := &Server{
		s:     serve.NewCfg(cfg.MaxConcurrent, w, serve.Config{MaxQueue: cfg.MaxQueue, Watchdog: cfg.Watchdog}),
		cache: cfg.Cache,
		tr:    cfg.Tracer,
	}
	sv.obs = newServerObs(sv.s, cfg.Cache)
	obs, tr := sv.obs, cfg.Tracer.raw()
	sv.s.Observe(func(info serve.AdmitInfo) {
		if info.Queued {
			obs.queueWait.Observe(info.Wait.Seconds())
		}
		tr.Emit("serve.admit",
			telemetry.Bool("queued", info.Queued),
			telemetry.Dur("wait_ns", info.Wait))
	})
	telemetry.PublishExpvar("sparsefusion", sv.obs.reg)
	return sv
}

// Close rejects new work and tears the worker sets down, waiting for
// in-flight executions to finish. Safe to call more than once.
func (sv *Server) Close() { sv.s.Close() }

// CloseContext is Close with a bound: new work is rejected immediately, but
// the drain of in-flight executions waits only while ctx is alive. When ctx
// fires first, worker sets still pinned under running executions are
// abandoned to them (their workers exit when the runs finish) and ctx.Err()
// is returned. Cancel the in-flight runs' own contexts to make the drain
// fast.
func (sv *Server) CloseContext(ctx context.Context) error { return sv.s.CloseContext(ctx) }

// ServerStats is a snapshot of a Server's admission counters.
type ServerStats = serve.Stats

// Stats snapshots the admission counters.
func (sv *Server) Stats() ServerStats { return sv.s.Stats() }
