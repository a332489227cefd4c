package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/load"
	"repro/internal/scenario"
)

// runScenario drives an open session under its non-static scenario: each
// round it asks the scenario instance for the active graph (SwapGraph
// rebuilds the stepper — with the current loads and the session's
// persistent algorithm RNG — only when the graph actually changes),
// advances the stepper one synchronous round, injects the scenario's
// arrivals straight into the stepper's live load state, and commits the
// potential. Arrival-bearing scenarios run their full horizon (there is no
// convergence round to stop at while load keeps landing); arrival-free
// ones (pure topology churn) stop early once Φ reaches the target, exactly
// like a static run.
//
// All randomness is split into two streams — cfg.Seed for the algorithm,
// cfg.ScenarioSeed for the scenario — and every draw happens at a fixed
// point of the sequential round loop, so identical seeds reproduce
// identical trajectories regardless of worker counts or shard splits.
func runScenario(s *Session) (Result, error) {
	cfg := s.Config()
	var ref float64
	for _, v := range cfg.Loads {
		ref += v
	}
	inst, err := cfg.Scenario.New(cfg.Graph, ref, rand.New(rand.NewSource(cfg.ScenarioSeed)))
	if err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}

	horizon := s.Horizon()
	for t := 1; t <= horizon; t++ {
		k := t - 1 // scenarios number rounds from 0
		if err := s.SwapGraph(inst.Graph(k)); err != nil {
			return Result{}, err
		}
		if err := s.Step(); err != nil {
			return Result{}, err
		}
		// An arrival-free scenario has nothing to inject, and s.Loads() would
		// copy a discrete run's tokens into the session's float view.
		if !inst.ArrivalFree() {
			if _, err := s.Inject(inst.Arrivals(k, s.Loads())); err != nil {
				return Result{}, err
			}
		}
		phi, err := s.Commit()
		if err != nil {
			return Result{}, err
		}
		if inst.ArrivalFree() && phi <= s.Target() {
			break
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
