package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/relayout"
)

// Artifacts is the inspection product chain cached under one fingerprint;
// exec.CompileFused builds the stages a chain lacks and binds a runner to it.
// Every field is immutable after publication: the schedule and program are
// never written post-build, and the layout's streams are read-only during
// execution (relayout.Build refuses chains that overwrite packed sources).
type Artifacts struct {
	// Schedule is the fused ICO schedule. A published entry keeps it only
	// when it has no program: a program rebuilds it byte for byte
	// (core.Program.Decompile).
	Schedule *core.Schedule
	// Program is the schedule compiled to the flat executor form; nil when
	// the schedule exceeds the compiled representation (ProgramErr says why),
	// in which case the facade refuses to open it.
	Program    *core.Program
	ProgramErr string
	// Layout is the schedule-order packed re-layout; nil when the chain does
	// not support packing (LayoutErr says why). Unlike the schedule and
	// program it bakes in matrix values — consumers must check
	// Layout.VerifySum against their kernels before sharing it.
	Layout    *relayout.Layout
	LayoutErr string
}

// Builder supplies the three stages of a miss. Inspect is the expensive part
// the cache exists to amortize; Complete derives the rest of the chain from a
// schedule (compile + re-layout); Validate gates schedules read back from the
// disk tier before they are trusted (nil skips the gate).
type Builder struct {
	Inspect  func() (*core.Schedule, error)
	Validate func(*core.Schedule) error
	Complete func(*core.Schedule) (Artifacts, error)
}

// Entry is one published cache line: the artifact chain plus bookkeeping.
// Entries are immutable; the recency stamp is the only mutable word and is
// atomic.
type Entry struct {
	Key Key
	Artifacts
	// FromDisk records that the schedule was loaded from the disk tier
	// rather than inspected in this process.
	FromDisk bool

	lastUse atomic.Int64
}

// Config tunes a Cache.
type Config struct {
	// MaxEntries bounds the in-memory tier; <= 0 selects DefaultMaxEntries.
	MaxEntries int
	// Dir enables the disk tier: schedules persist as
	// <Dir>/<fingerprint>.sched files and warm-start later processes.
	// Empty disables persistence.
	Dir string
	// OnEvent, when non-nil, observes every cache transition (hits, misses,
	// singleflight waits, evictions, disk tier traffic) as it happens — the
	// hook the telemetry layer's structured event tracing rides on. The
	// callback runs inline on the requesting goroutine (under mu only for
	// evictions), so it must be fast and must not call back into the cache.
	OnEvent func(Event)
}

// EventKind names one cache transition.
type EventKind string

const (
	// EventHit is a lock-free read of a published entry.
	EventHit EventKind = "hit"
	// EventMiss is a build actually run (after the disk tier declined).
	EventMiss EventKind = "miss"
	// EventWait is a request that blocked on another tenant's in-flight
	// build of the same key (the singleflight coalescing path).
	EventWait EventKind = "wait"
	// EventEvict is an in-memory entry dropped by the size bound.
	EventEvict EventKind = "evict"
	// EventDiskLoad is a miss served from the disk tier (the loaded schedule
	// passed fingerprint re-verification and validation).
	EventDiskLoad EventKind = "disk_load"
	// EventDiskSave is a freshly inspected schedule persisted to the tier.
	EventDiskSave EventKind = "disk_save"
	// EventDiskError is an unreadable, mismatched, invalid, or unwritable
	// tier file; Err carries the cause when one is known.
	EventDiskError EventKind = "disk_error"
	// EventDiskQuarantine is a corrupt, truncated, mismatched, or invalid
	// tier file moved aside (renamed to <file>.bad) so the next request for
	// its fingerprint rebuilds and rewrites it instead of re-reading and
	// re-failing on the same bytes forever. Err carries the defect that
	// triggered it.
	EventDiskQuarantine EventKind = "disk_quarantine"
)

// Event is one observed cache transition.
type Event struct {
	Kind EventKind
	// Key is the fingerprint involved.
	Key Key
	// Dur is how long the transition took, where meaningful (miss: the full
	// build; wait: time blocked on the leader; disk_load: read+verify).
	Dur time.Duration
	// Err is the cause of a disk_error, when known.
	Err string
}

// emit fires the hook if one is installed.
func (c *Cache) emit(kind EventKind, key Key, dur time.Duration, errStr string) {
	if c.onEvent != nil {
		c.onEvent(Event{Kind: kind, Key: key, Dur: dur, Err: errStr})
	}
}

// DefaultMaxEntries is the in-memory bound when Config.MaxEntries is unset.
// An entry is roughly the program plus packed streams — pattern-sized — so
// the default assumes a universe of at most a few hundred live patterns.
const DefaultMaxEntries = 128

// Cache is the content-addressed artifact store. The zero value is not
// usable; construct with New.
type Cache struct {
	max     int
	dir     string
	onEvent func(Event)

	// entries is the published tier: Key -> *Entry. Reads (hits) are
	// lock-free; writes happen only on misses under mu.
	entries sync.Map
	count   atomic.Int64
	// clock stamps recency for the eviction scan; monotonically increasing,
	// bumped on every touch.
	clock atomic.Int64

	// mu guards inflight and the publish/evict step. It is never held while
	// building or while waiting for a leader.
	mu       sync.Mutex
	inflight map[Key]*flight

	hits, misses, waits    atomic.Int64
	evictions              atomic.Int64
	diskHits, diskErrors   atomic.Int64
	diskQuarantines        atomic.Int64
	inflightN, inflightMax atomic.Int64
}

// flight is one in-progress build; latecomers block on done.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// New constructs a cache. If cfg.Dir is set it is created on first save.
func New(cfg Config) *Cache {
	max := cfg.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{max: max, dir: cfg.Dir, onEvent: cfg.OnEvent, inflight: make(map[Key]*flight)}
}

// lookup is the raw published-tier read; it refreshes the recency stamp but
// records no statistics.
func (c *Cache) lookup(key Key) (*Entry, bool) {
	v, ok := c.entries.Load(key)
	if !ok {
		return nil, false
	}
	e := v.(*Entry)
	e.lastUse.Store(c.clock.Add(1))
	return e, true
}

// Get returns the published entry for key, if any. The hit path takes no
// locks.
func (c *Cache) Get(key Key) (*Entry, bool) {
	e, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
		c.emit(EventHit, key, 0, "")
	}
	return e, ok
}

// GetOrBuild returns the entry for key, building it exactly once under
// concurrency: the first caller for an unpublished key becomes the leader and
// runs the builder (disk tier first, then Inspect); every concurrent caller
// for the same key blocks on the leader and shares its result pointer. A
// build error is returned to the leader and all waiters and publishes
// nothing, so a later call retries.
func (c *Cache) GetOrBuild(key Key, b Builder) (*Entry, error) {
	if e, ok := c.lookup(key); ok {
		c.hits.Add(1)
		c.emit(EventHit, key, 0, "")
		return e, nil
	}
	c.mu.Lock()
	if e, ok := c.lookup(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		c.emit(EventHit, key, 0, "")
		return e, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		t0 := time.Now()
		<-f.done
		c.emit(EventWait, key, time.Since(t0), "")
		return f.e, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	if n := c.inflightN.Add(1); n > c.inflightMax.Load() {
		c.inflightMax.Store(n) // racy max is fine: diagnostics, not invariants
	}
	c.mu.Unlock()

	f.e, f.err = c.build(key, b)
	if f.err == nil {
		c.publish(key, f.e)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	c.inflightN.Add(-1)
	close(f.done)
	return f.e, f.err
}

// build runs one miss: disk tier (when enabled and the file verifies), then
// the builder's Inspect, then Complete. Freshly inspected schedules are
// written back to the disk tier best-effort; the entry then keeps the tree
// schedule only if there is no program to rebuild it from.
func (c *Cache) build(key Key, b Builder) (*Entry, error) {
	c.misses.Add(1)
	tBuild := time.Now()
	var sched *core.Schedule
	fromDisk := false
	if c.dir != "" {
		t0 := time.Now()
		if s, err := c.loadDisk(key); err == nil {
			if b.Validate != nil {
				err = b.Validate(s)
			}
			if err == nil {
				sched, fromDisk = s, true
				c.diskHits.Add(1)
				c.emit(EventDiskLoad, key, time.Since(t0), "")
			} else {
				// The container parsed but its schedule fails validation:
				// the file is stale or corrupt in a way the envelope cannot
				// catch. Quarantine it so this process rebuilds (and the
				// save below rewrites a good file) instead of every future
				// request re-reading and re-failing the same bytes.
				c.diskErrors.Add(1)
				c.emit(EventDiskError, key, time.Since(t0), err.Error())
				c.quarantine(key, err)
			}
		} else if !isNotExist(err) {
			c.diskErrors.Add(1)
			c.emit(EventDiskError, key, time.Since(t0), err.Error())
			c.quarantine(key, err)
		}
	}
	if sched == nil {
		var err error
		sched, err = b.Inspect()
		if err != nil {
			return nil, err
		}
	}
	art, err := b.Complete(sched)
	if err != nil {
		return nil, err
	}
	if art.Schedule == nil {
		art.Schedule = sched
	}
	if c.dir != "" && !fromDisk {
		if err := c.saveDisk(key, art.Schedule); err != nil {
			c.diskErrors.Add(1)
			c.emit(EventDiskError, key, 0, err.Error())
		} else {
			c.emit(EventDiskSave, key, 0, "")
		}
	}
	if art.Program != nil {
		art.Schedule = nil
	}
	e := &Entry{Key: key, Artifacts: art, FromDisk: fromDisk}
	e.lastUse.Store(c.clock.Add(1))
	c.emit(EventMiss, key, time.Since(tBuild), "")
	return e, nil
}

// publish stores the entry and evicts the least-recently-used line when the
// in-memory tier outgrows its bound. Eviction only drops the in-memory
// pointer — a disk-tier file, if any, survives and re-warms a later miss.
func (c *Cache) publish(key Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, loaded := c.entries.LoadOrStore(key, e); loaded {
		return
	}
	if int(c.count.Add(1)) <= c.max {
		return
	}
	var oldKey Key
	var old *Entry
	c.entries.Range(func(k, v any) bool {
		en := v.(*Entry)
		if en == e {
			return true // never evict the line just published
		}
		if old == nil || en.lastUse.Load() < old.lastUse.Load() {
			old, oldKey = en, k.(Key)
		}
		return true
	})
	if old != nil {
		c.entries.Delete(oldKey)
		c.count.Add(-1)
		c.evictions.Add(1)
		c.emit(EventEvict, oldKey, 0, "")
	}
}

// Stats is an expvar-style counter snapshot.
type Stats struct {
	// Hits are lock-free reads of a published entry; Waits are callers that
	// blocked on another goroutine's in-flight build of the same key (the
	// singleflight coalescing path); Misses count actual builds — under a
	// thundering herd on one new pattern, Misses is exactly 1.
	Hits, Misses, Waits int64
	// Evictions counts in-memory lines dropped by the size bound.
	Evictions int64
	// DiskHits are misses served by the disk tier instead of inspection;
	// DiskErrors count unreadable, mismatched, or unwritable tier files.
	DiskHits, DiskErrors int64
	// DiskQuarantines counts corrupt or invalid tier files moved aside
	// (renamed to .bad) so their fingerprints rebuild instead of re-failing.
	DiskQuarantines int64
	// Entries and Inflight are current gauges; InflightPeak is the high-water
	// concurrent-build mark.
	Entries, Inflight, InflightPeak int
	// MaxEntries is the configured in-memory bound.
	MaxEntries int
}

// HitRate is the fraction of requests served without running an inspection
// (published hits plus singleflight waits).
func (s Stats) HitRate() float64 {
	served := s.Hits + s.Waits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Waits:           c.waits.Load(),
		Evictions:       c.evictions.Load(),
		DiskHits:        c.diskHits.Load(),
		DiskErrors:      c.diskErrors.Load(),
		DiskQuarantines: c.diskQuarantines.Load(),
		Entries:         int(c.count.Load()),
		Inflight:        int(c.inflightN.Load()),
		InflightPeak:    int(c.inflightMax.Load()),
		MaxEntries:      c.max,
	}
}
