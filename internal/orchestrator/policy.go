package orchestrator

import "time"

// Policy is the supervisor's restart/steal policy — one value the CLIs and
// tests configure identically instead of loose parameters scattered over
// the Supervisor.
type Policy struct {
	// MaxRetries caps how many times one task is restarted after dying: 0
	// means never restart (fail fast on the first death). The cap is per
	// task: one flaky shard cannot consume the whole budget of a healthy
	// sweep, and a stolen sub-shard gets a fresh budget of its own.
	MaxRetries int
	// Interval is the journal poll period (default 1s).
	Interval time.Duration
	// StealAfter enables work stealing: a running task whose journal has
	// not moved for this long is declared dead weight — the supervisor
	// kills it, carves its unstarted unit range into sub-shards and
	// reassigns them to idle launchers. Zero (the default) disables
	// stealing, which keeps the local supervise path behavior-identical to
	// the pre-Launcher orchestrator.
	StealAfter time.Duration
}

// stallWarnAfter is how long a running task's journal may sit unchanged
// before a stall warning. Warnings are per stall episode, not per poll.
const stallWarnAfter = 60 * time.Second

// fetchInterval throttles Launcher.FetchJournal during the poll loop:
// remote backends pay a round trip per fetch, so journals are pulled home
// at this cadence while the local tail scan still runs every
// Policy.Interval. Task exits always fetch immediately.
const fetchInterval = 5 * time.Second

// withDefaults resolves the documented defaults without mutating p.
func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	return p
}
