package sparsefusion

import (
	"runtime"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/lbc"
)

// Options tunes fusion. The zero value is usable: GOMAXPROCS threads, no
// cache. The head-DAG partitioner always runs at the paper's LBC tuning
// (initial cut 4, coarsening factor 400).
type Options struct {
	// Threads is r, the parallelism the schedule targets.
	Threads int
	// Cache, when non-nil, routes inspection through a content-addressed
	// schedule cache: NewOperation computes a structural fingerprint of the
	// matrix pattern and these options, and reuses the cached schedule,
	// compiled program, and packed layout when an equal fingerprint was
	// inspected before (in this process or, with a disk tier, an earlier one).
	Cache *ScheduleCache
	// Tracer, when non-nil, receives structured events for the inspection
	// pipeline (DAG build, ICO stages, compile, re-layout) and the lifecycle
	// of the operation and its sessions (creation, demotions with typed
	// cause). Nil costs one pointer check per event site.
	Tracer *Tracer
	// Watchdog bounds how long the executor waits for a worker to arrive at
	// an s-partition barrier before giving up on the round: a stuck worker
	// body (a livelocked kernel, a scheduling pathology on an oversubscribed
	// host) then surfaces as a typed error with ExecError.Watchdog set
	// instead of hanging the caller forever. 0 disables the bound.
	Watchdog time.Duration
}

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// fingerprint computes the content address of the artifact chain these
// options produce over m: the structural pattern (never values), the thread
// count, the paper's LBC constants (hashed so every key keeps its bytes), and
// what p names of the chain — a Table 1 combination, or a composed chain's
// length and ordered kernel ids.
func (o Options) fingerprint(m *Matrix, p cache.Params) cache.Key {
	d := lbc.DefaultParams()
	p.Threads, p.LBCInitialCut, p.LBCAgg = o.threads(), d.InitialCut, d.Agg
	return m.fingerprint(p)
}

// CacheConfig tunes a ScheduleCache.
type CacheConfig struct {
	// MaxEntries bounds the in-memory tier; beyond it the least recently used
	// entry is evicted. <= 0 selects a default of 128 entries.
	MaxEntries int
	// Dir, when set, enables the disk tier: schedules persist as
	// fingerprint-named files under Dir and warm-start later processes
	// (loaded schedules are fingerprint- and validity-checked before use).
	Dir string
	// Tracer, when non-nil, receives one structured event per cache
	// transition: hit, miss (with build duration), singleflight wait,
	// eviction, and disk-tier load/save/error.
	Tracer *Tracer
}

// ScheduleCache is a content-addressed store for inspection artifacts —
// the fused schedule, its compiled program, and its packed re-layout — keyed
// by a structural fingerprint of the matrix pattern and scheduling options.
// The paper's economics are amortization (inspection costs tens of solves;
// the schedule stays valid while the pattern is unchanged, section 2.1);
// the cache extends that amortization across operations and tenants: hits
// are lock-free, and concurrent misses on one new pattern run exactly one
// inspection while the latecomers wait for the leader's result.
//
// A ScheduleCache is safe for concurrent use and is typically shared
// process-wide via Options.Cache.
type ScheduleCache struct {
	c *cache.Cache
}

// NewScheduleCache constructs a cache; CacheConfig{} is usable.
func NewScheduleCache(cfg CacheConfig) *ScheduleCache {
	ccfg := cache.Config{MaxEntries: cfg.MaxEntries, Dir: cfg.Dir}
	if cfg.Tracer != nil {
		ccfg.OnEvent = cacheEventHook(cfg.Tracer)
	}
	return &ScheduleCache{c: cache.New(ccfg)}
}

// CacheStats is a snapshot of a ScheduleCache's counters; HitRate is the
// fraction of requests served without running an inspection.
type CacheStats = cache.Stats

// Stats snapshots the cache counters.
func (sc *ScheduleCache) Stats() CacheStats { return sc.c.Stats() }
