package sparsefusion

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/telemetry"
)

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
	op, err := assemble(c, m, opts)
	if err != nil {
		return nil, err
	}
	if err := op.open(t0, opts, op.fp); err != nil {
		return nil, err
	}
	return op, nil
}

// assemble is an operation's kernels over m and its fingerprint under opts,
// with nothing inspected or bound yet.
func assemble(c Combination, m *Matrix, opts Options) (*Operation, error) {
	inst, err := combos.Assemble(combos.ID(c), m.forms)
	if err != nil {
		return nil, err
	}
	return &Operation{
		execState: newExecState(inst, opts),
		fp:        opts.fingerprint(m, cache.Params{Combo: int(c)}),
	}, nil
}

// Fingerprint returns the operation's content address in hex: the SHA-256
// fingerprint of the matrix pattern (structure only, never values), the
// combination, and the scheduling options. Operations with equal fingerprints
// have bit-identical schedules (ICO is deterministic), which is what makes
// the cache and the saved-schedule container trustworthy.
func (op *Operation) Fingerprint() string { return op.fp.String() }

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
// options it is being loaded for — a file for a different pattern or thread
// count.
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
	op, err := assemble(c, m, opts)
	if err != nil {
		return nil, err
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
