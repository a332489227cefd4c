package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/load"
	"repro/internal/scenario"
)

// runScenario is the one round loop: Balance runs every config through
// it. Each round it asks the scenario instance for the active graph
// (SwapGraph carries the stepper onto it — in place, or rebuilt on the
// current loads with the session's persistent algorithm RNG — only when
// the graph actually changes), advances the stepper one synchronous
// round, injects the scenario's arrivals straight into the stepper's live
// load state, and commits the potential. The static scenario is the instance whose graph
// never changes and which injects nothing; it draws nothing, so it gets no
// RNG. Arrival-bearing scenarios run their full horizon (there is no
// convergence round to stop at while load keeps landing); arrival-free
// ones, static and pure topology churn alike, stop as soon as Φ is at or
// under the target, including a start that already is (0 rounds).
//
// All randomness is split into two streams — cfg.Seed for the algorithm,
// cfg.ScenarioSeed for the scenario — and every draw happens at a fixed
// point of the sequential round loop, so identical seeds reproduce
// identical trajectories regardless of worker counts or shard splits.
func runScenario(s *Session) (Result, error) {
	cfg := s.Config()
	var ref float64
	var rng *rand.Rand
	if !cfg.Scenario.IsStatic() { // the static instance reads neither
		ref, rng = load.Sum(cfg.Loads), rand.New(rand.NewSource(cfg.ScenarioSeed))
	}
	inst, err := cfg.Scenario.New(cfg.Graph, ref, rng)
	if err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}

	horizon, arrivalFree := s.Horizon(), inst.ArrivalFree()
	// Scenarios number rounds from 0; a check before round k is one after k−1.
	for k := 0; k < horizon && !(arrivalFree && s.Phi() <= s.Target()); k++ {
		if err := s.SwapGraph(inst.Graph(k)); err != nil {
			return Result{}, err
		}
		if err := s.Step(); err != nil {
			return Result{}, err
		}
		// An arrival-free scenario has nothing to inject, and s.Loads() would
		// copy a discrete run's tokens into the session's float view.
		if !arrivalFree {
			if _, err := s.Inject(inst.Arrivals(k, s.Loads())); err != nil {
				return Result{}, err
			}
		}
		if _, err := s.Commit(); err != nil {
			return Result{}, err
		}
	}
	return s.Close(), nil
}

// injectInto lands the arrivals in the stepper's live load state,
// returning the total injected.
func injectInto(sys System, arrivals []scenario.Arrival) float64 {
	if st, ok := sys.(Stepper[int64]); ok {
		return inject(st.Values(), arrivals)
	}
	return inject(sys.(Stepper[float64]).Values(), arrivals)
}

// inject adds each arrival to its node's load, skipping non-positive
// amounts and out-of-range nodes, and returns the total injected. The one
// per-type line is the rounding of discrete arrivals to whole tokens.
func inject[T load.Value](v []T, arrivals []scenario.Arrival) float64 {
	var total float64
	for _, a := range arrivals {
		amt := T(a.Amount)
		if _, tokens := any(amt).(int64); tokens {
			amt = T(math.Round(a.Amount))
		}
		if amt <= 0 || a.Node < 0 || a.Node >= len(v) {
			continue
		}
		v[a.Node] += amt
		total += float64(amt)
	}
	return total
}
