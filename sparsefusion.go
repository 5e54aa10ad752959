// Package sparsefusion is a Go implementation of sparse fusion — "Runtime
// Composition of Iterations for Fusing Loop-carried Sparse Dependence"
// (Cheshmi, Strout, Mehri Dehnavi; SC '23) — an inspector-executor technique
// that fuses consecutive sparse matrix kernels, at least one of which has
// loop-carried dependencies, into a single parallel schedule optimized for
// load balance and data locality.
//
// The public API works at three levels:
//
//   - Combination operations (NewOperation): the six kernel pairs of the
//     paper's Table 1 — TRSV+TRSV, DSCAL+ILU0, TRSV+SpMV, IC0+TRSV,
//     ILU0+TRSV and DSCAL+IC0 — inspected once (ICO scheduling) and executed
//     repeatedly while the sparsity pattern is unchanged.
//   - The Gauss-Seidel solver (NewGaussSeidel), which fuses more than two
//     loops by unrolling sweeps (paper section 4.3).
//   - Fusion as a service: a content-addressed ScheduleCache that amortizes
//     inspection across operations, processes (disk tier) and concurrent
//     tenants (singleflight); per-client Sessions that execute one shared
//     inspected operation concurrently; and a Server that bounds how many
//     fused executions run at once.
//
// The schedulers, kernels and runtime live in internal/ packages; see
// DESIGN.md for the full inventory.
package sparsefusion

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/order"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/serve"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/telemetry"
)

// Matrix is an immutable sparse matrix handle in CSR storage. What operations
// derive from the matrix alone, it derives once and keeps for as long as the
// handle lives: the lower triangle, the CSC form and their value checksums
// (forms), and the cache keys of the option sets it has been opened with
// (keys). Every NewOperation over one handle shares them, so handles are
// passed by pointer only.
type Matrix struct {
	csr   *sparse.CSR
	forms *sparse.Forms

	mu   sync.Mutex
	keys map[keyParams]cache.Key
}

// keyParams is cache.Params in comparable form (the chain's kernel ids
// joined), the index of Matrix.keys.
type keyParams struct {
	combo, threads, lbcInitialCut, lbcAgg, chainLen int
	chainKernels                                    string
}

func newMatrix(csr *sparse.CSR) *Matrix {
	return &Matrix{csr: csr, forms: sparse.NewForms(csr)}
}

// fingerprint is cache.Fingerprint(m.csr, p) — byte for byte, so disk tiers
// and saved schedules keep resolving — hashed on the first request for p and
// remembered: the SHA-256 walks the whole pattern, a price every open of a
// cached schedule would otherwise pay before it can look anything up.
func (m *Matrix) fingerprint(p cache.Params) cache.Key {
	id := keyParams{p.Combo, p.Threads, p.LBCInitialCut, p.LBCAgg, p.ChainLen, strings.Join(p.ChainKernels, "\x00")}
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[id]
	if !ok {
		k = cache.Fingerprint(m.csr, p)
		if m.keys == nil {
			m.keys = make(map[keyParams]cache.Key)
		}
		m.keys[id] = k
	}
	return k
}

// Entry is one coordinate-format matrix entry.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewMatrix builds a matrix from coordinate entries; duplicates are summed.
func NewMatrix(rows, cols int, entries []Entry) (*Matrix, error) {
	ts := make([]sparse.Triplet, len(entries))
	for i, e := range entries {
		ts[i] = sparse.Triplet{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	csr, err := sparse.FromTriplets(rows, cols, ts)
	if err != nil {
		return nil, err
	}
	return newMatrix(csr), nil
}

// LoadMatrixMarket reads a Matrix Market file (coordinate real/integer/
// pattern, general or symmetric), the format the SuiteSparse collection
// distributes.
func LoadMatrixMarket(path string) (*Matrix, error) {
	csr, err := sparse.ReadMatrixMarketFile(path)
	if err != nil {
		return nil, err
	}
	return newMatrix(csr), nil
}

// Laplacian2D returns the 5-point Laplacian on a k-by-k grid (SPD, n = k^2).
// k < 1 panics: grid sizes are compile-time choices, not runtime input.
func Laplacian2D(k int) *Matrix { return newMatrix(sparse.Must(sparse.Laplacian2D(k))) }

// Laplacian3D returns the 7-point Laplacian on a k^3 grid (SPD, n = k^3).
func Laplacian3D(k int) *Matrix { return newMatrix(sparse.Must(sparse.Laplacian3D(k))) }

// RandomSPD returns a random SPD matrix with about deg off-diagonal entries
// per row; deterministic in seed.
func RandomSPD(n, deg int, seed int64) *Matrix {
	return newMatrix(sparse.Must(sparse.RandomSPD(n, deg, seed)))
}

// PowerLawSPD returns an SPD matrix with a scale-free degree distribution.
func PowerLawSPD(n, deg int, seed int64) *Matrix {
	return newMatrix(sparse.Must(sparse.PowerLawSPD(n, deg, seed)))
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.csr.Rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.csr.Cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return m.csr.NNZ() }

// Reorder returns the matrix under a parallelism-exposing symmetric
// permutation (pseudo-nested dissection), this library's substitute for the
// paper's METIS preprocessing, together with the permutation
// (perm[new] = old). Vectors can be mapped with PermuteVector. On grid-like
// problems this shortens the triangular-solve critical path by several
// times, which is what the schedulers feed on.
func (m *Matrix) Reorder() (*Matrix, []int, error) {
	p, err := order.NestedDissection(m.csr, 64)
	if err != nil {
		return nil, nil, err
	}
	pa, err := sparse.PermuteSym(m.csr, p)
	if err != nil {
		return nil, nil, err
	}
	return newMatrix(pa), p, nil
}

// PermuteVector maps x into the reordered index space: result[new] =
// x[perm[new]].
func PermuteVector(x []float64, perm []int) []float64 { return sparse.PermuteVec(x, perm) }

// UnpermuteVector undoes PermuteVector.
func UnpermuteVector(x []float64, perm []int) []float64 { return sparse.UnpermuteVec(x, perm) }

// Combination selects one of the paper's Table 1 kernel pairs.
type Combination int

const (
	// TrsvTrsv solves x = L\input then output = L\x (two forward solves).
	TrsvTrsv Combination = Combination(combos.TrsvTrsv)
	// DscalIlu0 scales A symmetrically then ILU0-factors it in place.
	DscalIlu0 Combination = Combination(combos.DscalIlu0)
	// TrsvMv solves y = L\input then output = A*y.
	TrsvMv Combination = Combination(combos.TrsvMv)
	// Ic0Trsv computes the IC0 factor of A then solves output = L\input.
	Ic0Trsv Combination = Combination(combos.Ic0Trsv)
	// Ilu0Trsv ILU0-factors A then solves the unit-lower system.
	Ilu0Trsv Combination = Combination(combos.Ilu0Trsv)
	// DscalIc0 scales tril(A) symmetrically then IC0-factors it.
	DscalIc0 Combination = Combination(combos.DscalIc0)
	// MvMv chains two SpMVs (parallel-loop fusion, paper section 4.3).
	MvMv Combination = Combination(combos.MvMv)
)

// String returns the paper's label for the combination.
func (c Combination) String() string { return combos.Names[combos.ID(c)] }

// Options tunes fusion. The zero value is usable: GOMAXPROCS threads, the
// paper's LBC parameters (initial cut 4, coarsening factor 400), no cache.
type Options struct {
	// Threads is r, the parallelism the schedule targets.
	Threads int
	// LBCInitialCut and LBCAgg tune the head-DAG partitioner.
	LBCInitialCut, LBCAgg int
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

// orBackground maps the facade's nil-means-unbounded contexts onto the
// executor's non-nil contract.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) lbc() lbc.Params {
	return lbc.Params{InitialCut: o.LBCInitialCut, Agg: o.LBCAgg}
}

// fingerprint computes the content address of the artifact chain these
// options produce over m: the structural pattern (never values), every option
// that shapes the schedule, and what p names of the chain — a Table 1
// combination, or a composed chain's length and ordered kernel ids. LBC zero
// values are resolved to their defaults first so Options{} and
// Options{LBCInitialCut: 4, LBCAgg: 400} address the same entry.
func (o Options) fingerprint(m *Matrix, p cache.Params) cache.Key {
	d := lbc.DefaultParams()
	p.Threads, p.LBCInitialCut, p.LBCAgg = o.threads(), o.LBCInitialCut, o.LBCAgg
	if p.LBCInitialCut <= 0 {
		p.LBCInitialCut = d.InitialCut
	}
	if p.LBCAgg <= 0 {
		p.LBCAgg = d.Agg
	}
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

// CacheStats is a snapshot of a ScheduleCache's counters.
type CacheStats struct {
	// Hits are lock-free reads of a published entry; Waits are requests that
	// blocked on another tenant's in-flight inspection of the same pattern;
	// Misses count inspections actually run (under a thundering herd on one
	// new pattern, exactly 1).
	Hits, Misses, Waits int64
	// Evictions counts in-memory entries dropped by the size bound.
	Evictions int64
	// DiskHits are misses served from the disk tier instead of inspection;
	// DiskErrors count unreadable, mismatched, or unwritable tier files.
	DiskHits, DiskErrors int64
	// DiskQuarantines counts corrupt or invalid tier files renamed to .bad so
	// their fingerprints rebuild (and rewrite a good file) instead of
	// re-failing every request.
	DiskQuarantines int64
	// Entries and Inflight are current gauges; InflightPeak is the high-water
	// concurrent-inspection mark.
	Entries, Inflight, InflightPeak int
	// MaxEntries is the configured in-memory bound.
	MaxEntries int
}

// HitRate is the fraction of requests served without running an inspection
// (hits plus singleflight waits over all requests).
func (s CacheStats) HitRate() float64 {
	served := s.Hits + s.Waits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Stats snapshots the cache counters.
func (sc *ScheduleCache) Stats() CacheStats {
	st := sc.c.Stats()
	return CacheStats{
		Hits:            st.Hits,
		Misses:          st.Misses,
		Waits:           st.Waits,
		Evictions:       st.Evictions,
		DiskHits:        st.DiskHits,
		DiskErrors:      st.DiskErrors,
		DiskQuarantines: st.DiskQuarantines,
		Entries:         st.Entries,
		Inflight:        st.Inflight,
		InflightPeak:    st.InflightPeak,
		MaxEntries:      st.MaxEntries,
	}
}

// Report describes one execution of a fused operation.
type Report struct {
	// Time is the executor wall-clock time.
	Time time.Duration
	// Barriers counts synchronizations performed.
	Barriers int
	// BarrierWait is the load-imbalance cost summed over those barriers: for
	// each s-partition, the gap between the slowest worker and the mean. It is
	// the time the average worker spent waiting at barriers, which the
	// inspector's balancing (LBC's bins, ICO's slack vertices) exists to shrink.
	BarrierWait time.Duration
	// GFlops is the achieved floating-point rate.
	GFlops float64
}

// ExecMode names one rung of the executor ladder an Operation can run on,
// from fastest to most conservative.
type ExecMode string

const (
	// ModePacked executes the compiled schedule against schedule-order
	// operand streams (the re-layout executor).
	ModePacked ExecMode = "packed"
	// ModeCompiled executes the schedule compiled to flat programs, reading
	// operands in matrix order.
	ModeCompiled ExecMode = "compiled"
	// ModeSequential runs the kernels one after another in program order on
	// the calling goroutine — one thread, no worker set, no barriers, no
	// schedule — the last rung of the ladder.
	ModeSequential ExecMode = "sequential"
)

// Demotion records one step down the executor ladder: which rung was
// abandoned, which replaced it, and why.
type Demotion struct {
	From, To ExecMode
	Reason   string
}

// Health describes the executor state of an Operation or Session: the rung
// it currently runs on and every demotion taken since construction (at open,
// when there is no packed layout, or after a run-time executor fault).
type Health struct {
	Mode      ExecMode
	Demotions []Demotion
}

// execState is the executor half shared by Operation and Session: the kernel
// instance holding the mutable vectors, the immutable inspection artifacts
// (compiled program, packed layout), and the mutable ladder state. The
// program is the one run-time form of the schedule, and the last rung needs
// not even that: nothing the state runs asks for the fusion input the
// inspector read or the tree schedule it wrote.
//
// mu guards the ladder state (runner, layout, demotions) so Health may be
// polled from a monitoring goroutine while Run executes; Run itself must not
// be called concurrently on one execState — concurrency comes from multiple
// Sessions, each with its own state.
type execState struct {
	inst *combos.Instance
	// prog is the compiled flat form, shared (immutably) with every session
	// and cache consumer.
	prog *core.Program
	th   int
	// watchdog is the executor tuning carried from Options, applied to every
	// runner this state builds — including the rebuilt runner of a session
	// bound to shared artifacts — and to the worker set a solve starts.
	watchdog time.Duration
	// layErr records why the packed layout is absent, for demotion records
	// of sessions derived from this state.
	layErr string

	// id is the process-unique identity demotion records and lifecycle
	// events carry; tr is the attached tracer (nil-safe).
	id int64
	tr *Tracer

	mu sync.Mutex
	// runner binds this state's kernels to prog (with packed streams attached
	// while on the packed rung); nil once demoted to the sequential rung.
	runner *exec.Runner
	// layout is the packed re-layout the runner has attached; nil otherwise.
	layout    *relayout.Layout
	demotions []Demotion
	// demSeen is how many demotions a Server has already harvested into its
	// log (guarded by mu alongside demotions).
	demSeen int
}

// demote appends demotion records and emits their trace events. Caller must
// NOT hold e.mu (construction-time callers are single-threaded; run-time
// callers append under mu themselves and emit separately).
func (e *execState) demote(ds ...Demotion) {
	e.demotions = append(e.demotions, ds...)
	e.emitDemotions(ds)
}

// emitDemotions traces demotions on the attached tracer, if any.
func (e *execState) emitDemotions(ds []Demotion) {
	t := e.tr.raw()
	if t == nil {
		return
	}
	for _, d := range ds {
		t.Emit("session.demote",
			telemetry.Int("session", e.id),
			telemetry.String("from", string(d.From)),
			telemetry.String("to", string(d.To)),
			telemetry.String("reason", d.Reason))
	}
}

// Operation is an inspected fused kernel combination. Inspection (DAG and
// dependency-matrix construction plus ICO scheduling) happens once in
// NewOperation — or not at all on a cache hit — and Run executes the fused
// code repeatedly; the schedule stays valid while the sparsity pattern is
// unchanged, exactly as in the paper's inspector-executor model. What the
// inspector read (the DAGs and F) and the tree form of what it wrote go when
// NewOperation returns: the operation keeps the compiled program, its packed
// layout and runner, its vectors and the matrix forms its kernels read.
//
// Execution degrades along a ladder: the packed (schedule-order stream)
// executor where the chain supports it, the compiled flat-program executor
// otherwise, and the kernels run one after another in program order, on one
// thread, as the last resort. A packed layout that fails to build, or a rung
// that faults at run time, is abandoned for the next rung; Health reports
// where the operation currently stands.
//
// An Operation serves one client at a time; NewSession clones it into
// independent concurrent clients sharing the inspection artifacts.
type Operation struct {
	execState
	fp cache.Key
}

// NewOperation inspects combination c over the SPD matrix m. With
// Options.Cache set, inspection runs at most once per fingerprint — an
// operation over a previously seen pattern reuses the cached schedule,
// program, and (when the matrix values also match) packed layout, and pays
// for its kernels, vectors and executor binding only.
func NewOperation(c Combination, m *Matrix, opts Options) (*Operation, error) {
	t0 := time.Now()
	inst, err := combos.Assemble(combos.ID(c), m.forms)
	if err != nil {
		return nil, err
	}
	op := &Operation{
		execState: newExecState(inst, opts),
		fp:        opts.fingerprint(m, cache.Params{Combo: int(c)}),
	}
	if err := op.open(t0, opts, op.fp); err != nil {
		return nil, err
	}
	return op, nil
}

// newExecState is the state of a new operation or solver over inst, tuned by
// opts, before anything is bound.
func newExecState(inst *combos.Instance, opts Options) execState {
	return execState{inst: inst, th: opts.threads(), watchdog: opts.Watchdog, id: nextStateID.Add(1), tr: opts.Tracer}
}

// open resolves this state's artifact chain and binds the executor ladder to
// it. With a cache it looks up first: a hit binds the shared artifacts and
// never asks for the fusion input; a miss builds it, inspects, and builds and
// binds the chain under the cache's singleflight. Without one it inspects. The
// fusion input is built at most once, for whichever of inspection and the disk
// tier's validation asks first, and dropped when open returns. One op.open
// event says which it was and what the open cost since t0.
func (e *execState) open(t0 time.Time, opts Options, fp cache.Key) error {
	var loops *core.Loops
	var reuse float64
	input := func() (*core.Loops, float64) {
		if loops == nil {
			loops, reuse = e.fusion()
		}
		return loops, reuse
	}
	inspect := func() (*core.Schedule, error) {
		loops, reuse := input()
		return e.inspect(loops, reuse, opts.lbc())
	}
	outcome := "off"
	if opts.Cache == nil {
		sched, err := inspect()
		if err != nil {
			return err
		}
		if _, err := e.bindArtifacts(cache.Artifacts{Schedule: sched}, false); err != nil {
			return err
		}
	} else {
		outcome = "hit"
		entry, err := opts.Cache.c.GetOrBuild(fp, cache.Builder{
			Inspect: inspect,
			Validate: func(s *core.Schedule) error {
				l, _ := input()
				return l.Validate(s)
			},
			Complete: func(s *core.Schedule) (cache.Artifacts, error) {
				outcome = "miss"
				return e.bindArtifacts(cache.Artifacts{Schedule: s}, false)
			},
		})
		if err != nil {
			return err
		}
		if outcome == "hit" {
			if _, err := e.bindArtifacts(entry.Artifacts, true); err != nil {
				return err
			}
		}
	}
	if t := e.tr.raw(); t != nil {
		t.Emit("op.open",
			telemetry.Int("op", e.id),
			telemetry.String("combo", e.inst.Name),
			telemetry.String("cache", outcome),
			telemetry.String("fp", hexPrefix(fp)),
			telemetry.Dur("dur_ns", time.Since(t0)))
	}
	return nil
}

// fusion returns the inspector's input over this state's kernels — the
// per-kernel DAGs and F (Loops) and the reuse ratio. The state keeps none of
// it: an operation's instance builds it afresh for each caller, and a solver
// chain's returns the Loops it was built with until open releases them
// (combos.Instance.Release). Only a build that actually ran is traced.
func (e *execState) fusion() (*core.Loops, float64) {
	t0 := time.Now()
	loops, reuse, built := e.inst.Fusion()
	if built {
		e.traceDAGBuild(loops, time.Since(t0))
	}
	return loops, reuse
}

// traceDAGBuild emits inspect.dag_build, the one event every build of the
// fusion input reports it with: the problem size, the edges of the kernel
// DAGs and what building them took.
func (e *execState) traceDAGBuild(loops *core.Loops, d time.Duration) {
	t := e.tr.raw()
	if t == nil {
		return
	}
	edges := 0
	for _, g := range loops.G {
		edges += g.NumEdges()
	}
	t.Emit("inspect.dag_build",
		telemetry.Int("op", e.id),
		telemetry.String("combo", e.inst.Name),
		telemetry.Int("n", int64(loops.G[0].N)),
		telemetry.Int("dag_edges", int64(edges)),
		telemetry.Dur("dur_ns", d))
}

// inspect runs ICO over the fusion input with the head partitioner tuned by
// lp; a tracer sees the stage breakdown.
func (e *execState) inspect(loops *core.Loops, reuse float64, lp lbc.Params) (*core.Schedule, error) {
	params := core.Params{Threads: e.th, ReuseRatio: reuse, LBC: lp}
	if e.tr == nil {
		return core.ICO(loops, params)
	}
	t := time.Now()
	sched, tm, err := core.ICOTimed(loops, params)
	if err != nil {
		return nil, err
	}
	e.tr.raw().Emit("inspect.ico",
		telemetry.Int("op", e.id),
		telemetry.Dur("dur_ns", time.Since(t)),
		telemetry.Dur("setup_ns", tm.Setup),
		telemetry.Dur("lbc_ns", tm.Head),
		telemetry.Dur("pairing_ns", tm.Pairing),
		telemetry.Dur("merge_ns", tm.Merge),
		telemetry.Dur("slack_ns", tm.Slack),
		telemetry.Dur("pack_ns", tm.Pack),
		telemetry.Int("s_partitions", int64(sched.NumSPartitions())),
		telemetry.Bool("interleaved", sched.Interleaved))
	return sched, nil
}

// Fingerprint returns the operation's content address in hex: the SHA-256
// fingerprint of the matrix pattern (structure only, never values), the
// combination, and the scheduling options. Operations with equal fingerprints
// have bit-identical schedules (ICO is deterministic), which is what makes
// the cache and the saved-schedule container trustworthy.
func (op *Operation) Fingerprint() string { return op.fp.String() }

// traceStages returns the stage hook exec.CompileFused reports the artifacts
// this state builds to: one inspect.compile and one inspect.relayout event,
// with duration and outcome read from art. Nil without a tracer.
func (e *execState) traceStages(art *cache.Artifacts) func(string, time.Duration) {
	t := e.tr.raw()
	if t == nil {
		return nil
	}
	return func(stage string, d time.Duration) {
		op, dur := telemetry.Int("op", e.id), telemetry.Dur("dur_ns", d)
		switch {
		case stage == "compile" && art.Program == nil:
			t.Emit("inspect.compile", op, dur, telemetry.String("err", art.ProgramErr))
		case stage == "compile":
			t.Emit("inspect.compile", op, dur, telemetry.Int("iters", int64(len(art.Program.Iters))))
		case art.Layout == nil:
			t.Emit("inspect.relayout", op, dur, telemetry.String("err", art.LayoutErr))
		default:
			// What the no-atomics scatter costs: of the scatter updates per
			// run, how many go to private slots, and how many adds fold them
			// back.
			var entries, redirected, slots, folds int
			for _, sc := range art.Layout.Scatter {
				if sc != nil {
					entries += sc.Entries
					redirected += sc.Redirected
					slots += sc.Slots
					folds += len(sc.FoldTarget)
				}
			}
			t.Emit("inspect.relayout", op, dur,
				telemetry.Int("scatter_entries", int64(entries)),
				telemetry.Int("scatter_redirected", int64(redirected)),
				telemetry.Int("scatter_slots", int64(slots)),
				telemetry.Int("scatter_fold_entries", int64(folds)))
		}
	}
}

// bindArtifacts builds this state's executor ladder from an artifact chain —
// exec.CompileFused builds the stages art lacks and binds the runner — and
// records a demotion when there is no packed layout. It returns the chain as
// bound, or the error of a schedule the compiled representation refuses
// (one with 2^27 or more iterations per loop, which does not fit in memory).
// With shared set the chain may come from another tenant (the cache, or a
// parent operation): the schedule and program depend only on the sparsity
// pattern and are shared as-is, but the packed layout baked in matrix values,
// so it is verified against this state's kernels and rebuilt privately on a
// mismatch.
func (e *execState) bindArtifacts(art cache.Artifacts, shared bool) (cache.Artifacts, error) {
	if shared && art.Layout != nil {
		if sum, ok := e.inst.SourceSum(); !ok || art.Layout.VerifySum(sum) != nil {
			art.Layout = nil
		}
	}
	r, err := exec.CompileFused(e.inst.Kernels, &art, e.traceStages(&art))
	if err != nil {
		return art, err
	}
	r.Configure(exec.Config{Watchdog: e.watchdog})
	e.prog, e.runner, e.layErr = art.Program, r, art.LayoutErr
	if r.Layout() == nil {
		e.demote(Demotion{From: ModePacked, To: ModeCompiled, Reason: art.LayoutErr})
		return art, nil
	}
	e.layout = art.Layout
	return art, nil
}

// modeLocked reads the current rung; e.mu must be held.
func (e *execState) modeLocked() ExecMode {
	switch {
	case e.runner == nil:
		return ModeSequential
	case e.runner.Layout() != nil:
		return ModePacked
	default:
		return ModeCompiled
	}
}

// Mode returns the executor rung currently run on.
func (e *execState) Mode() ExecMode {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.modeLocked()
}

// Health reports the current executor rung and the demotions taken to reach
// it. It is safe to poll from a monitoring goroutine while Run executes:
// demotion recording and reads share a mutex. The demotions are copied so
// callers never alias internal state, but only when any exist — the common
// healthy case allocates nothing.
func (e *execState) Health() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := Health{Mode: e.modeLocked()}
	if len(e.demotions) > 0 {
		h.Demotions = append([]Demotion(nil), e.demotions...)
	}
	return h
}

// SetInput overwrites the input vector. Matrix-only combinations
// (DscalIlu0, DscalIc0) have no input vector and return an error.
func (e *execState) SetInput(x []float64) error {
	if e.inst.Input == nil {
		return fmt.Errorf("sparsefusion: %s takes no input vector", e.inst.Name)
	}
	if len(x) != len(e.inst.Input) {
		return fmt.Errorf("sparsefusion: input length %d, want %d", len(x), len(e.inst.Input))
	}
	copy(e.inst.Input, x)
	return nil
}

// Output returns a copy of the result (the solution vector, or the factor
// values for factor-only combinations).
func (e *execState) Output() []float64 { return e.inst.Snapshot() }

// ReuseRatio reports the inspector's locality metric (paper section 2.2), as
// the schedule recorded it.
func (e *execState) ReuseRatio() float64 { return e.prog.ReuseRatio }

// Interleaved reports the packing variant the reuse ratio selected.
func (e *execState) Interleaved() bool { return e.prog.Interleaved }

// Barriers returns the number of synchronizations per execution of the fused
// schedule.
func (e *execState) Barriers() int { return e.prog.NumSPartitions() }

// schedule returns the state's schedule in tree form, rebuilt exactly from
// the program.
func (e *execState) schedule() *core.Schedule { return e.prog.Decompile() }

// Run executes the fused schedule once.
//
// Errors are typed: a numerical breakdown inside a kernel (zero pivot,
// non-SPD input, ...) surfaces as a *kernels.BreakdownError wrapped in an
// *ExecError — reach it with errors.As. A non-numerical executor fault
// (a panic out of a worker body, e.g. from a corrupted compiled program)
// demotes the operation one ladder rung — packed to compiled, compiled to
// sequential — and retries; only a fault on the last rung, which reads no
// schedule, is returned. The operation stays usable after any error.
func (e *execState) Run() (Report, error) {
	return e.run(nil, nil)
}

// RunContext is Run under cooperative cancellation. When ctx is cancelled —
// or its deadline expires — while the run is in flight, the run stops at the
// next s-partition boundary and returns a *CancelledError naming it; all
// s-partitions completed before that boundary are bit-identical to an
// uncancelled run's, every worker is parked at the barrier, and the operation
// (or session) is immediately reusable. On the sequential rung the run stops
// at the next kernel boundary instead, and SPartition is -1. Cancellation is
// observed within one s-partition round, or one kernel, and never demotes
// the executor ladder: it says nothing about the artifacts, only about the
// caller's patience.
func (e *execState) RunContext(ctx context.Context) (Report, error) {
	return e.run(ctx, nil)
}

// RunOn is Run under a server's admission control: the execution waits for
// one of the server's worker sets, runs on it, and returns it. At most the
// server's MaxConcurrent executions run at once across all operations and
// sessions sharing the server. A schedule wider than the server's worker
// sets still runs (on a private, per-call worker set), and an operation on
// the sequential rung runs on the calling goroutine with the worker set it
// was admitted on left idle — the admission bound holds either way. Returns
// ErrServerClosed after the server is closed.
func (e *execState) RunOn(sv *Server) (Report, error) {
	return e.RunOnContext(nil, sv)
}

// RunOnContext is RunOn under a deadline: ctx bounds both the wait for a
// worker set (ErrServerOverloaded when the admission queue is full,
// ErrDeadlineExceeded when ctx fires while queued — the run never started)
// and the run itself (a *CancelledError once in flight, with RunContext's
// bit-identity guarantees). A nil ctx means no bound.
func (e *execState) RunOnContext(ctx context.Context, sv *Server) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rep Report
	var runErr error
	t0 := time.Now()
	if err := sv.s.DoContext(ctx, func(pl *exec.Pool) error {
		rep, runErr = e.run(ctx, pl)
		return nil
	}); err != nil {
		// Shed and deadline outcomes are already counted by the admission
		// layer itself (Stats.Shed / Stats.DeadlineExceeded).
		return Report{}, err
	}
	sv.observeSolve(e, time.Since(t0), rep, runErr)
	return rep, runErr
}

func (e *execState) run(ctx context.Context, pl *exec.Pool) (Report, error) {
	st, err := e.runLadder(ctx, pl)
	return Report{
		Time:        st.Elapsed,
		Barriers:    st.Barriers,
		BarrierWait: st.PotentialGain,
		GFlops:      telemetry.GFlops(e.inst.FlopCount(), st.Elapsed),
	}, err
}

// runLadder executes on the current rung, demoting and retrying on
// non-numerical executor faults. With a non-nil pool (a server's, or the one
// a solve keeps), runs whose width fits execute on it instead of spawning a
// private worker set.
func (e *execState) runLadder(ctx context.Context, pl *exec.Pool) (exec.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		e.mu.Lock()
		r := e.runner
		e.mu.Unlock()
		var st exec.Stats
		var err error
		switch {
		case r != nil && pl != nil && e.prog.MaxWidth <= pl.Width():
			st, err = r.RunOnContext(ctx, pl, e.th)
		case r != nil:
			st, err = r.RunContext(ctx, e.th)
		default:
			st, err = exec.RunInOrder(ctx, e.inst.Kernels)
		}
		if err == nil {
			return st, nil
		}
		// A breakdown is a property of the numbers, not the executor: every
		// rung computes the same values, so demoting would only repeat it.
		var b *kernels.BreakdownError
		if errors.As(err, &b) {
			return st, err
		}
		// Cancellation says nothing about the artifacts — only that the
		// caller stopped waiting. Return it without touching the ladder.
		var c *CancelledError
		if errors.As(err, &c) {
			return st, err
		}
		// A watchdog trip indicts the worker (stuck body, pathological
		// scheduling), not the rung: demoting and retrying would re-run on a
		// poisoned worker set. Surface it; the serving layer replaces the set.
		var xe *ExecError
		if errors.As(err, &xe) && xe.Watchdog {
			return st, err
		}
		if r == nil {
			return st, err // already on the last rung
		}
		// The fault came from the packed or compiled artifacts: drop the
		// layout, or the runner and with it the program's order.
		var taken []Demotion
		e.mu.Lock()
		if e.runner == r {
			if r.Layout() != nil {
				r.DetachLayout()
				e.layout = nil
				e.layErr = err.Error()
				taken = []Demotion{{From: ModePacked, To: ModeCompiled, Reason: err.Error()}}
			} else {
				e.runner = nil
				taken = []Demotion{{From: ModeCompiled, To: ModeSequential, Reason: err.Error()}}
			}
			e.demotions = append(e.demotions, taken...)
		}
		e.mu.Unlock()
		e.emitDemotions(taken)
	}
}

// Session is one client's private handle on a shared operation: its own
// input, output, and intermediate vectors (and its own executor ladder) over
// the operation's immutable inspection artifacts — matrices, compiled
// program, packed streams. Any number of sessions may Run
// concurrently with each other and with the parent operation; none of them
// may be used concurrently with itself.
type Session struct {
	execState
}

// ErrNotCloneable is returned by NewSession for combinations whose kernels
// write matrix values during a run (the factorization chains): concurrent
// sessions would race on the shared factor, so those operations serve one
// client at a time.
var ErrNotCloneable = combos.ErrNotCloneable

// NewSession clones the operation for a concurrent client. Only combinations
// whose kernels never write matrix values — TrsvTrsv, TrsvMv, MvMv — are
// cloneable; the factorization combinations return ErrNotCloneable (their
// runs mutate the shared factor in place, so they serve one client at a
// time).
func (op *Operation) NewSession() (*Session, error) {
	clone, err := op.inst.CloneForSession()
	if err != nil {
		return nil, err
	}
	op.mu.Lock()
	art := cache.Artifacts{Program: op.prog, Layout: op.layout, LayoutErr: op.layErr}
	op.mu.Unlock()
	s := &Session{execState: execState{inst: clone, th: op.th, watchdog: op.watchdog, id: nextStateID.Add(1), tr: op.tr}}
	s.tr.raw().Emit("session.new",
		telemetry.Int("session", s.id),
		telemetry.Int("op", op.id),
		telemetry.String("combo", clone.Name))
	if _, err := s.bindArtifacts(art, true); err != nil {
		return nil, err
	}
	return s, nil
}

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

// CancelledError is the typed error a cancelled in-flight run returns: the
// run stopped at an s-partition boundary (SPartition), every earlier
// s-partition is bit-identical to an uncancelled run's, and the operation,
// session, and worker set are immediately reusable. Unwrap exposes
// context.Canceled / context.DeadlineExceeded.
type CancelledError = exec.CancelledError

// ExecError is the typed error for a worker-body fault: a recovered panic
// (Recovered, with Breakdown() for numerical breakdowns) or a barrier
// watchdog trip (Watchdog true).
type ExecError = exec.ExecError

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
type ServerStats struct {
	// MaxConcurrent and Width echo the configuration; EffectiveWidth is the
	// parallelism each worker set actually achieves right now
	// (min(Width, GOMAXPROCS)) — the number capacity planning should read.
	MaxConcurrent  int `json:"max_concurrent"`
	Width          int `json:"width"`
	EffectiveWidth int `json:"effective_width"`
	// Admitted counts executions that acquired a worker set; Queued counts
	// those that had to wait for one; Active is the in-flight gauge.
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Active   int64 `json:"active"`
	// Waiting is the live queue depth — requests blocked for a worker set
	// right now, as opposed to the cumulative Queued.
	Waiting int64 `json:"waiting"`
	// MaxQueue echoes the admission-queue bound (0 = unbounded); Shed counts
	// requests rejected with ErrServerOverloaded at that bound, and
	// DeadlineExceeded counts requests whose context fired while still queued
	// (the run never started).
	MaxQueue         int   `json:"max_queue"`
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// PoolsReplaced counts worker sets retired after a barrier-watchdog trip
	// and replaced with fresh ones.
	PoolsReplaced int64 `json:"pools_replaced"`
}

// Stats snapshots the admission counters.
func (sv *Server) Stats() ServerStats {
	st := sv.s.Stats()
	return ServerStats{
		MaxConcurrent:    st.MaxConcurrent,
		Width:            st.Width,
		EffectiveWidth:   st.EffectiveWidth,
		Admitted:         st.Admitted,
		Queued:           st.Queued,
		Active:           st.Active,
		Waiting:          st.Waiting,
		MaxQueue:         st.MaxQueue,
		Shed:             st.Shed,
		DeadlineExceeded: st.DeadlineExceeded,
		PoolsReplaced:    st.PoolsReplaced,
	}
}

// SaveSchedule persists the operation's fused schedule so a later process
// can skip inspection for the same sparsity pattern (the inspector-executor
// amortization contract, paper section 2.1). The file embeds the operation's
// fingerprint; NewOperationFromSchedule verifies it before trusting the
// payload.
func (op *Operation) SaveSchedule(w io.Writer) error {
	return cache.WriteScheduleFile(w, op.fp, op.schedule())
}

// ScheduleMismatchError reports a saved schedule rejected because the
// fingerprint it was saved under does not match the matrix, combination, and
// options it is being loaded for — a file for a different pattern, thread
// count, or LBC tuning.
type ScheduleMismatchError struct {
	// Want is the fingerprint computed from the loader's matrix and options;
	// Got is the one embedded in the file. Both hex-encoded.
	Want, Got string
}

func (e *ScheduleMismatchError) Error() string {
	return fmt.Sprintf("sparsefusion: saved schedule fingerprint %.12s… does not match this matrix/options (%.12s…)", e.Got, e.Want)
}

// NewOperationFromSchedule builds the operation's kernels for matrix m and
// loads a schedule SaveSchedule wrote instead of running ICO. The file's
// fingerprint is verified against the fingerprint of m and opts — a file
// saved for a different pattern or options fails with a
// *ScheduleMismatchError before the payload is even considered, and a file
// that is not SaveSchedule's container fails to read. The schedule is then
// validated against the matrix's dependency structure, so a corrupt or stale
// file is rejected rather than executed.
func NewOperationFromSchedule(c Combination, m *Matrix, r io.Reader, opts Options) (*Operation, error) {
	inst, err := combos.Assemble(combos.ID(c), m.forms)
	if err != nil {
		return nil, err
	}
	op := &Operation{
		execState: newExecState(inst, opts),
		fp:        opts.fingerprint(m, cache.Params{Combo: int(c)}),
	}
	key, sched, err := cache.ReadScheduleFile(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	if key != op.fp {
		return nil, &ScheduleMismatchError{Want: op.fp.String(), Got: key.String()}
	}
	loops, _ := op.fusion()
	if err := loops.Validate(sched); err != nil {
		return nil, fmt.Errorf("sparsefusion: saved schedule does not match this matrix: %w", err)
	}
	if _, err := op.bindArtifacts(cache.Artifacts{Schedule: sched}, false); err != nil {
		return nil, err
	}
	return op, nil
}
