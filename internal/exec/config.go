package exec

import "time"

// Config tunes the private pool a Runner creates for Run and RunContext. The
// zero value is the env/default spin budget and no barrier watchdog.
type Config struct {
	// SpinBudget overrides the barrier's spin-before-yield poll count. <= 0
	// selects the process default (SPARSEFUSION_SPIN_BUDGET env, else 30000
	// polls, trimmed to 1 when oversubscribed).
	SpinBudget int

	// Watchdog bounds how long the barrier waits for a worker to arrive at
	// the end of an s-partition round. A round that exceeds it returns an
	// *ExecError with Watchdog set instead of hanging the caller behind a
	// stuck worker body; the private pool is poisoned and torn down with the
	// run. 0 disables the bound.
	Watchdog time.Duration
}

// Configure sets the runner's execution config. It does not affect a run
// already in flight — Runner is single-caller by contract.
func (r *Runner) Configure(cfg Config) { r.cfg = cfg }

// Config returns what Configure last set (the zero Config before that).
func (r *Runner) Config() Config { return r.cfg }
