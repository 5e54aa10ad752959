// Package chaos is the deterministic fault-injection harness behind the
// scenario matrix in its own tests. Every fault it produces is derived from a
// caller-supplied seed, so a failing scenario replays exactly:
// the same worker stalls at the same iteration, the same byte of the same
// cache file flips, the same request is cancelled at the same point in its
// window. The package only composes hook points the production code already
// exposes — kernels.Kernel wrappers riding the executor's panic fault
// channel, context cancellation, and the disk tier's file format — and is
// never imported by production paths; it exists so the error-handling
// machinery (typed errors, watchdogs, quarantine, bit-identical replay) is
// exercised on demand instead of only when hardware misbehaves.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"sparsefusion/internal/kernels"
)

// Rng is a splitmix64 sequence: tiny, fast, and — unlike math/rand —
// guaranteed stable across Go releases, which is what makes a chaos seed a
// durable reproduction recipe.
type Rng struct{ s uint64 }

// NewRng returns a deterministic generator for seed.
func NewRng(seed uint64) *Rng { return &Rng{s: seed} }

// Next returns the next 64 random bits.
func (r *Rng) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); n must be positive.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("chaos: Intn on non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Duration returns a value in [0, max).
func (r *Rng) Duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(r.Next() % uint64(max))
}

// CancelAfter derives a context that is cancelled after a seeded delay in
// [0, window) — one request of a cancel storm. The returned CancelFunc must
// be called to release the timer even when the deadline never fires.
func (r *Rng) CancelAfter(parent context.Context, window time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, r.Duration(window))
}

// Kernel fault injectors. Each wrapper implements kernels.Kernel by
// delegation and arms one outer-loop iteration; because the wrapper's method
// set deliberately omits the BatchRunner/PackedKernel fast-path interfaces,
// the executor falls back to per-iteration Run dispatch and the armed
// iteration is guaranteed to be observed, on whichever worker the schedule
// assigns it to.

// faultKernel intercepts Run at one iteration; hit fires before the
// delegated body (a panic in hit suppresses the body, matching how real
// kernel breakdowns abandon the iteration).
type faultKernel struct {
	kernels.Kernel
	iter int
	hit  func(i int)
}

func (f *faultKernel) Run(i int) {
	if i == f.iter {
		f.hit(i)
	}
	f.Kernel.Run(i)
}

// NewDelay wraps k so iteration iter stalls for d before computing — a slow
// worker. With d above the pool watchdog, the run must surface a watchdog
// ExecError instead of hanging its barrier.
func NewDelay(k kernels.Kernel, iter int, d time.Duration) kernels.Kernel {
	return &faultKernel{Kernel: k, iter: iter, hit: func(int) { time.Sleep(d) }}
}

// NewPanic wraps k so iteration iter panics with a non-breakdown value — a
// plain bug in a kernel body. The executor must recover it into an
// *exec.ExecError carrying the message and stack.
func NewPanic(k kernels.Kernel, iter int) kernels.Kernel {
	name := k.Name()
	return &faultKernel{Kernel: k, iter: iter, hit: func(i int) {
		panic(fmt.Sprintf("chaos: injected panic in %s at iteration %d", name, i))
	}}
}

// NewBreakdown wraps k so iteration iter raises a typed numerical breakdown,
// exactly as a kernel body does for a zero pivot. errors.As must find the
// *kernels.BreakdownError through whatever the executor wraps it in.
func NewBreakdown(k kernels.Kernel, iter int) kernels.Kernel {
	name := k.Name()
	return &faultKernel{Kernel: k, iter: iter, hit: func(i int) {
		panic(&kernels.BreakdownError{Kernel: name, Row: i, Reason: "chaos: injected breakdown"})
	}}
}

// Disk-tier corruption. Both helpers damage a schedule container in place
// the way real storage does — bit rot inside the payload, a torn tail from
// a crashed writer — so the cache's validate-quarantine-rebuild path runs
// against realistic defects.

// CorruptFile flips one seeded byte in the payload region of the container
// at path (past the 16-byte header and 32-byte fingerprint, so the file
// still *looks* like a container and the defect is only caught by payload
// validation). The XOR mask is drawn from the same sequence and never zero.
func CorruptFile(path string, seed uint64) error {
	const envelope = 16 + 32
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	body := st.Size() - envelope
	if body <= 0 {
		return errors.New("chaos: container too small to corrupt past its envelope")
	}
	r := NewRng(seed)
	off := int64(envelope) + int64(r.Next()%uint64(body))
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= byte(r.Next()%255) + 1
	_, err = f.WriteAt(b[:], off)
	return err
}

// TruncateFile cuts the file at path down to keep bytes — the torn tail a
// crash mid-write leaves when rename-into-place is not used.
func TruncateFile(path string, keep int64) error {
	return os.Truncate(path, keep)
}

// ErrStuck reports a scenario that neither returned a typed error nor
// finished — the one outcome the robustness work exists to rule out.
var ErrStuck = errors.New("chaos: scenario did not terminate under its watchdog")

// Under runs fn under a harness watchdog: if fn does not return within
// timeout, Under gives up on it and returns ErrStuck (the goroutine is
// abandoned; a tripped harness watchdog means the scenario failed and the
// process is expected to exit reporting it).
func Under(timeout time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return ErrStuck
	}
}
