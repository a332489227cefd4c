package batch

import "runtime"

// RoundParallelMinN is the node count below which the auto-tuner refuses to
// spend cores on round-level fan-out: under it a round's node loop is tens
// of microseconds and the per-round goroutine barrier costs more than it
// buys, so the cores are worth more as unit-level pool width.
const RoundParallelMinN = 4096

// TuneWorkers splits procs cores between the engine's unit-level pool and
// the steppers' round-level workers for a sweep of `units` cells of `n`
// nodes each. The policy follows the two regimes the hybrid design is for:
// many small cells saturate the machine at the unit level (rounds stay
// serial), while few huge cells — fewer units than cores, big enough n —
// hand the spare cores to the rounds. Both returned widths are ≥ 1 and
// their product never exceeds max(procs, units).
func TuneWorkers(units, n, procs int) (unitWorkers, roundWorkers int) {
	if procs < 1 {
		procs = 1
	}
	if units < 1 {
		units = 1
	}
	if units >= procs || n < RoundParallelMinN {
		if units < procs {
			return units, 1
		}
		return procs, 1
	}
	roundWorkers = procs / units
	if roundWorkers < 1 {
		roundWorkers = 1
	}
	return units, roundWorkers
}

// WorkerSplit resolves the spec's effective (unit-level, round-level)
// worker widths — the single place both the engine's pool and the run
// body's stepper configuration read, so the two levels never claim the
// machine twice. TuneWorkers picks both from the spec's own shard-owned
// unit count and node size; an explicit Workers width takes precedence
// for the pool, and the rounds get the cores it leaves over (serial below
// RoundParallelMinN nodes).
func (s Spec) WorkerSplit() (unitWorkers, roundWorkers int) {
	s = s.withDefaults()
	procs := runtime.GOMAXPROCS(0)
	if s.Workers <= 0 {
		return TuneWorkers(s.OwnedUnitCount(), s.N, procs)
	}
	roundWorkers = procs / s.Workers
	if roundWorkers < 1 || s.N < RoundParallelMinN {
		roundWorkers = 1
	}
	return s.Workers, roundWorkers
}
