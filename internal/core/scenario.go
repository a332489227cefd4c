package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/diffusion"
	"repro/internal/dimexchange"
	"repro/internal/randpair"
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
		if _, err := s.Inject(inst.Arrivals(k, s.Loads())); err != nil {
			return Result{}, err
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

// currentLoads returns the stepper's live load state as a float vector:
// the continuous vector itself (no copy — callers treat it as read-only),
// or a float view of the token counts. Token counts of any realistic
// magnitude are exact in float64, so the view round-trips losslessly into
// the next stepper build.
func currentLoads(sys System, mode Mode) []float64 {
	if mode == Discrete {
		tok := mustDiscrete(sys).LoadTokens()
		out := make([]float64, len(tok))
		for i, x := range tok {
			out[i] = float64(x)
		}
		return out
	}
	return mustContinuous(sys).LoadVector()
}

// inject lands the arrivals in the stepper's live load state, returning
// the total injected (discrete amounts round to whole tokens).
func inject(sys System, mode Mode, arrivals []scenario.Arrival) (float64, error) {
	if len(arrivals) == 0 {
		return 0, nil
	}
	var total float64
	if mode == Discrete {
		tok := mustDiscrete(sys).LoadTokens()
		for _, a := range arrivals {
			amt := int64(math.Round(a.Amount))
			if amt <= 0 || a.Node < 0 || a.Node >= len(tok) {
				continue
			}
			tok[a.Node] += amt
			total += float64(amt)
		}
		return total, nil
	}
	v := mustContinuous(sys).LoadVector()
	for _, a := range arrivals {
		if a.Amount <= 0 || a.Node < 0 || a.Node >= len(v) {
			continue
		}
		v[a.Node] += a.Amount
		total += a.Amount
	}
	return total, nil
}

// mustContinuous and mustDiscrete assert the stepper exposes the matching
// state hook. Every algorithm core builds implements them; a panic here
// means a new stepper was added without its ContinuousState or
// DiscreteState method.
func mustContinuous(sys System) ContinuousState {
	cs, ok := sys.(ContinuousState)
	if !ok {
		panic(fmt.Sprintf("core: stepper %T has no LoadVector hook", sys))
	}
	return cs
}

func mustDiscrete(sys System) DiscreteState {
	ds, ok := sys.(DiscreteState)
	if !ok {
		panic(fmt.Sprintf("core: stepper %T has no LoadTokens hook", sys))
	}
	return ds
}

// Compile-time checks: every stepper buildSystemOn can return must expose
// its state hook, so forgetting the method on a new algorithm fails the
// build, not a sweep.
var (
	_ ContinuousState = (*diffusion.Continuous)(nil)
	_ ContinuousState = (*diffusion.FirstOrder)(nil)
	_ ContinuousState = (*diffusion.SecondOrder)(nil)
	_ ContinuousState = (*dimexchange.Continuous)(nil)
	_ ContinuousState = (*dimexchange.RoundRobin)(nil)
	_ ContinuousState = (*randpair.Continuous)(nil)
	_ DiscreteState   = (*diffusion.Discrete)(nil)
	_ DiscreteState   = (*dimexchange.Discrete)(nil)
	_ DiscreteState   = (*dimexchange.RoundRobinDiscrete)(nil)
	_ DiscreteState   = (*randpair.Discrete)(nil)
)
