package cache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/sparse"
)

// watchdog fails the test when fn does not return within the deadline — a
// singleflight bug must never hang a herd.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("did not return within deadline")
	}
}

// testSchedule builds a small but non-trivial schedule for serialization
// round-trips.
func testSchedule(seed int) *core.Schedule {
	s := &core.Schedule{Interleaved: seed%2 == 0, ReuseRatio: float64(seed) / 7}
	for si := 0; si < 3; si++ {
		var sp [][]core.Iter
		for wi := 0; wi <= si; wi++ {
			var wp []core.Iter
			for k := 0; k < 4; k++ {
				wp = append(wp, core.Iter{Loop: k % 2, Idx: seed + 10*si + 3*wi + k})
			}
			sp = append(sp, wp)
		}
		s.S = append(s.S, sp)
	}
	return s
}

func testKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func builderFor(sched *core.Schedule, builds *atomic.Int64) Builder {
	return Builder{
		Inspect: func() (*core.Schedule, error) {
			if builds != nil {
				builds.Add(1)
			}
			return sched, nil
		},
		Complete: func(s *core.Schedule) (Artifacts, error) {
			return Artifacts{Schedule: s}, nil
		},
	}
}

// TestSingleflightHerd is the thundering-herd contract: M goroutines request
// one uncached key concurrently; exactly one inspection runs, every caller
// gets the same entry pointer, and the counters reflect one miss with M-1
// coalesced waits.
func TestSingleflightHerd(t *testing.T) {
	const herd = 32
	c := New(Config{})
	sched := testSchedule(1)
	var builds atomic.Int64
	b := Builder{
		Inspect: func() (*core.Schedule, error) {
			builds.Add(1)
			// Hold the flight open long enough that the herd really piles up
			// on the leader instead of serializing through published hits.
			time.Sleep(50 * time.Millisecond)
			return sched, nil
		},
		Complete: func(s *core.Schedule) (Artifacts, error) { return Artifacts{Schedule: s}, nil },
	}
	entries := make([]*Entry, herd)
	errs := make([]error, herd)
	watchdog(t, 10*time.Second, func() {
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(herd)
		for i := 0; i < herd; i++ {
			go func(i int) {
				defer done.Done()
				start.Wait()
				entries[i], errs[i] = c.GetOrBuild(testKey(7), b)
			}(i)
		}
		start.Done()
		done.Wait()
	})
	if n := builds.Load(); n != 1 {
		t.Fatalf("herd of %d ran %d inspections, want exactly 1", herd, n)
	}
	for i := range entries {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Waits != herd-1 {
		t.Fatalf("hits+waits = %d+%d, want %d", st.Hits, st.Waits, herd-1)
	}
	if st.Waits == 0 {
		t.Fatalf("no caller coalesced onto the in-flight build (waits = 0)")
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight gauge = %d after the herd drained, want 0", st.Inflight)
	}
	if got := st.HitRate(); got != float64(herd-1)/herd {
		t.Fatalf("hit rate = %v, want %v", got, float64(herd-1)/herd)
	}
}

// TestBuildErrorNotCached: a failing build reaches the leader and all
// waiters, publishes nothing, and a later request retries the build.
func TestBuildErrorNotCached(t *testing.T) {
	c := New(Config{})
	var builds atomic.Int64
	failing := Builder{
		Inspect: func() (*core.Schedule, error) {
			builds.Add(1)
			return nil, fmt.Errorf("inspection exploded")
		},
	}
	if _, err := c.GetOrBuild(testKey(1), failing); err == nil {
		t.Fatal("error build reported success")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed build was published: %+v", st)
	}
	// Retry with a working builder succeeds and builds again.
	e, err := c.GetOrBuild(testKey(1), builderFor(testSchedule(2), &builds))
	if err != nil || e == nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (failure then retry)", builds.Load())
	}
}

// TestLRUEviction: the size bound evicts the least-recently-used line, and a
// hit refreshes recency.
func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	for i := byte(1); i <= 2; i++ {
		if _, err := c.GetOrBuild(testKey(i), builderFor(testSchedule(int(i)), nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 so key 2 is the LRU line.
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	if _, err := c.GetOrBuild(testKey(3), builderFor(testSchedule(3), nil)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("evictions=%d entries=%d, want 1 and 2", st.Evictions, st.Entries)
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("LRU key 2 survived eviction")
	}
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("recently used key 1 was evicted")
	}
}

// TestDiskTier: a schedule persisted by one cache warm-starts a second cache
// over the same directory — no second inspection, bit-identical schedule —
// and the fingerprint in the file is verified on load.
func TestDiskTier(t *testing.T) {
	dir := t.TempDir()
	sched := testSchedule(5)
	var builds atomic.Int64
	key := testKey(9)

	c1 := New(Config{Dir: dir})
	e1, err := c1.GetOrBuild(key, builderFor(sched, &builds))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 || e1.FromDisk {
		t.Fatalf("first build: builds=%d fromDisk=%v", builds.Load(), e1.FromDisk)
	}

	// A fresh cache (a "restarted process") over the same directory serves
	// the schedule from disk.
	var validated atomic.Int64
	c2 := New(Config{Dir: dir})
	b2 := builderFor(sched, &builds)
	b2.Validate = func(s *core.Schedule) error { validated.Add(1); return nil }
	e2, err := c2.GetOrBuild(key, b2)
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Fatalf("disk hit still ran %d inspections, want 1 total", builds.Load())
	}
	if !e2.FromDisk || validated.Load() != 1 {
		t.Fatalf("fromDisk=%v validated=%d, want true and 1", e2.FromDisk, validated.Load())
	}
	if !bytes.Equal(e1.Schedule.Bytes(), e2.Schedule.Bytes()) {
		t.Fatal("disk-tier reload is not bit-identical to the inspected schedule")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
}

// TestDiskTierRejectsWrongKey: a tier file renamed to another fingerprint is
// rejected on load (fingerprint re-verified), falling back to inspection.
func TestDiskTierRejectsWrongKey(t *testing.T) {
	dir := t.TempDir()
	c1 := New(Config{Dir: dir})
	if _, err := c1.GetOrBuild(testKey(1), builderFor(testSchedule(1), nil)); err != nil {
		t.Fatal(err)
	}
	// Masquerade the key-1 file as key 2.
	if err := os.Rename(filepath.Join(dir, testKey(1).String()+".sched"),
		filepath.Join(dir, testKey(2).String()+".sched")); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	c2 := New(Config{Dir: dir})
	if _, err := c2.GetOrBuild(testKey(2), builderFor(testSchedule(2), &builds)); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if builds.Load() != 1 || st.DiskHits != 0 || st.DiskErrors == 0 {
		t.Fatalf("renamed tier file was trusted: builds=%d diskHits=%d diskErrors=%d",
			builds.Load(), st.DiskHits, st.DiskErrors)
	}
}

// TestDiskTierRejectsCorruptFile: a truncated tier file falls back to
// inspection instead of failing the request.
func TestDiskTierRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	c1 := New(Config{Dir: dir})
	key := testKey(4)
	if _, err := c1.GetOrBuild(key, builderFor(testSchedule(4), nil)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String()+".sched")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	c2 := New(Config{Dir: dir})
	e, err := c2.GetOrBuild(key, builderFor(testSchedule(4), &builds))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 || e.FromDisk {
		t.Fatalf("corrupt tier file was trusted: builds=%d fromDisk=%v", builds.Load(), e.FromDisk)
	}
}

// TestFingerprintComponents: the key moves with every fingerprint component
// — pattern, shape, combination, width, LBC tuning — and ignores values.
func TestFingerprintComponents(t *testing.T) {
	a := sparse.Must(sparse.Laplacian2D(8))
	p := Params{Combo: 1, Threads: 8, LBCInitialCut: 4, LBCAgg: 400}
	base := Fingerprint(a, p)

	if Fingerprint(a, p) != base {
		t.Fatal("fingerprint is not deterministic")
	}
	vals := a.Clone()
	for i := range vals.X {
		vals.X[i] *= 3
	}
	if Fingerprint(vals, p) != base {
		t.Fatal("fingerprint depends on matrix values; it must be structure-only")
	}
	diff := []Params{
		{Combo: 2, Threads: 8, LBCInitialCut: 4, LBCAgg: 400},
		{Combo: 1, Threads: 4, LBCInitialCut: 4, LBCAgg: 400},
		{Combo: 1, Threads: 8, LBCInitialCut: 3, LBCAgg: 400},
		{Combo: 1, Threads: 8, LBCInitialCut: 4, LBCAgg: 8},
	}
	for _, d := range diff {
		if Fingerprint(a, d) == base {
			t.Fatalf("params %+v collide with %+v", d, p)
		}
	}
	b := sparse.Must(sparse.Laplacian2D(9))
	if Fingerprint(b, p) == base {
		t.Fatal("different patterns collide")
	}
}

// TestContainerRoundTrip pins the envelope format: write, read, key match,
// payload bit-identical; a bare core file is refused.
func TestContainerRoundTrip(t *testing.T) {
	sched := testSchedule(3)
	key := testKey(42)
	var buf bytes.Buffer
	if err := WriteScheduleFile(&buf, key, sched); err != nil {
		t.Fatal(err)
	}
	gotKey, got, err := ReadScheduleFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("key round-trip: got %s want %s", gotKey, key)
	}
	if !bytes.Equal(got.Bytes(), sched.Bytes()) {
		t.Fatal("schedule payload not bit-identical after container round-trip")
	}
	if _, _, err := ReadScheduleFile(bytes.NewReader(sched.Bytes())); err == nil {
		t.Fatal("bare schedule read as a container")
	}
}

// TestQuarantineCorruptTierFile: a defective tier file is moved aside to
// <file>.bad on the failed load — with the quarantine counter bumped and a
// disk_quarantine event emitted — so the rebuild that follows rewrites a good
// file instead of every later process re-reading the same corrupt bytes.
func TestQuarantineCorruptTierFile(t *testing.T) {
	dir := t.TempDir()
	key := testKey(6)
	c1 := New(Config{Dir: dir})
	if _, err := c1.GetOrBuild(key, builderFor(testSchedule(6), nil)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String()+".sched")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var events []Event
	c2 := New(Config{Dir: dir, OnEvent: func(e Event) { events = append(events, e) }})
	if _, err := c2.GetOrBuild(key, builderFor(testSchedule(6), nil)); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskQuarantines != 1 {
		t.Fatalf("DiskQuarantines = %d, want 1", st.DiskQuarantines)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("no .bad corpse after quarantine: %v", err)
	}
	var sawQuarantine bool
	for _, e := range events {
		if e.Kind == EventDiskQuarantine {
			sawQuarantine = true
		}
	}
	if !sawQuarantine {
		t.Fatalf("no disk_quarantine event emitted (events: %+v)", events)
	}

	// The rebuild rewrote a good tier file: a third process gets a disk hit
	// and no further quarantine.
	c3 := New(Config{Dir: dir})
	e3, err := c3.GetOrBuild(key, builderFor(testSchedule(6), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !e3.FromDisk {
		t.Fatal("rebuild did not rewrite a loadable tier file")
	}
	if st := c3.Stats(); st.DiskQuarantines != 0 {
		t.Fatalf("healthy reload quarantined %d files", st.DiskQuarantines)
	}
}

// TestQuarantineMissingFileIsSilent: quarantining is best-effort — racing
// processes may both fail a load and only one wins the rename; the loser
// must not count a quarantine or emit an event for a file that is gone.
func TestQuarantineMissingFileIsSilent(t *testing.T) {
	var events []Event
	c := New(Config{Dir: t.TempDir(), OnEvent: func(e Event) { events = append(events, e) }})
	c.quarantine(testKey(3), errors.New("synthetic defect"))
	if st := c.Stats(); st.DiskQuarantines != 0 {
		t.Fatalf("DiskQuarantines = %d for a missing file, want 0", st.DiskQuarantines)
	}
	if len(events) != 0 {
		t.Fatalf("missing-file quarantine emitted events: %+v", events)
	}
}
