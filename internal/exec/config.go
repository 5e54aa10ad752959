package exec

import "time"

// Config tunes the private pool a Runner creates for Run and RunContext. The
// zero value is no barrier watchdog.
type Config struct {
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
