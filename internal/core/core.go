// Package core is the top-level facade of the library: a single, documented
// entry point that wires together the topology (internal/graph), the
// balancing algorithms (internal/diffusion, internal/dimexchange,
// internal/randpair) and the spectral analysis (internal/spectral), and
// owns the one round driver every caller shares: Session.
//
// A typical use:
//
//	g := graph.Torus(8, 8)
//	res, err := core.Balance(core.Config{
//		Graph:     g,
//		Algorithm: core.Diffusion,
//		Mode:      core.Continuous,
//		Loads:     core.SpikeLoads(g.N(), 1e6),
//		Epsilon:   1e-4,
//	})
//
// which runs the paper's Algorithm 1 until the potential has dropped to
// ε·Φ⁰ and reports the rounds used next to the Theorem 4 bound.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/batch"
	"repro/internal/diffusion"
	"repro/internal/dimexchange"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/randpair"
	"repro/internal/scenario"
	"repro/internal/speccache"
	"repro/internal/spectral"
)

// Algorithm selects the balancing scheme.
type Algorithm int

const (
	// Diffusion is the paper's Algorithm 1: concurrent balancing with every
	// neighbour, transfer (ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ)).
	Diffusion Algorithm = iota
	// DimensionExchange is the random-matching baseline of [12].
	DimensionExchange
	// RandomPartners is the paper's Algorithm 2: partners drawn uniformly
	// from all nodes each round (ignores Config.Graph's edges; the node
	// count still comes from the graph).
	RandomPartners
	// FirstOrder is Cybenko's scheme Lᵗ⁺¹ = M·Lᵗ, α = 1/(δ+1)
	// (continuous only).
	FirstOrder
	// SecondOrder is the β-accelerated scheme of [15] (continuous only).
	SecondOrder
	// RoundRobinExchange is deterministic dimension exchange ([3]): a fixed
	// matching schedule from a greedy edge coloring, cycled round-robin.
	RoundRobinExchange
)

// algorithms is Algorithm's name table, indexed by Algorithm: the String
// name, which ParseAlgorithm accepts, and the one-line -list description.
var algorithms = [...][2]string{
	Diffusion:          {"diffusion", "the paper's Algorithm 1: balance with every neighbour, (ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ))"},
	DimensionExchange:  {"dimexchange", "random-matching dimension exchange (the [12] baseline)"},
	RandomPartners:     {"randpair", "the paper's Algorithm 2: uniformly random partners, topology-free"},
	FirstOrder:         {"firstorder", "Cybenko's first-order scheme Lᵗ⁺¹ = M·Lᵗ (continuous only)"},
	SecondOrder:        {"secondorder", "β-accelerated second-order scheme of [15] (continuous only)"},
	RoundRobinExchange: {"roundrobin", "deterministic dimension exchange on an edge-coloring schedule"},
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algorithms) {
		return algorithms[a][0]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmDescriptions returns each algorithm name and a one-line
// description, in declaration order — the -list surface.
func AlgorithmDescriptions() [][2]string { return slices.Clone(algorithms[:]) }

// ParseAlgorithm converts a canonical (lowercase) name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, d := range algorithms {
		if d[0] == s {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Mode selects continuous (divisible) or discrete (token) load; its name
// table and parser are load's.
type Mode = load.Mode

const (
	// Continuous allows arbitrarily divisible load.
	Continuous = load.Continuous
	// Discrete moves indivisible tokens (floor transfers).
	Discrete = load.Discrete
)

// Config describes one balancing run.
type Config struct {
	// Graph is the topology. Required. The paper's theorems need it
	// connected: a static run on a disconnected graph ends before round 1
	// with Result.Reason ReasonDisconnected, except under RandomPartners,
	// which ignores the edges.
	Graph *graph.G
	// Algorithm selects the scheme (default Diffusion).
	Algorithm Algorithm
	// Mode selects continuous or discrete load (default Continuous).
	Mode Mode
	// Loads is the initial continuous distribution; for Discrete mode the
	// entries are truncated to integers. Length must equal Graph.N().
	Loads []float64
	// Epsilon is the convergence target: stop when Φ ≤ ε·Φ⁰ (continuous)
	// or when Φ reaches max(ε·Φ⁰, discrete threshold) in discrete mode.
	// Default 1e-3.
	Epsilon float64
	// MaxRounds caps the run (default: 16× the relevant theorem bound, or
	// 10⁶ when no bound applies). A static run on a disconnected graph
	// runs no rounds whatever the cap.
	MaxRounds int
	// Seed drives the randomized algorithms (default 1).
	Seed int64
	// Workers is the round-level worker count: every stepper fans its
	// node/pair loops over this many goroutines (default 1 = serial;
	// results are byte-identical for any value). It is a per-run knob,
	// distinct from the batch engine's unit-level pool width — see
	// batch.Spec.WorkerSplit for how grid sweeps split GOMAXPROCS
	// between the two levels.
	Workers int
	// Scenario drives time-varying arrivals and topology churn between
	// rounds (the §5 dynamic model as a declarative run dimension). The
	// zero value is the static scenario: a one-shot start on a fixed
	// graph, byte-identical to pre-scenario runs. Non-static scenarios run
	// a fixed horizon (MaxRounds, or scenario.DefaultHorizon) unless the
	// scenario is arrival-free and the target is reached early, and report
	// PeakPhi/SteadyRMS/RebalanceRounds alongside the usual metrics.
	Scenario scenario.Spec
	// ScenarioSeed drives the scenario's own RNG stream, kept separate
	// from Seed so enabling a scenario never perturbs the algorithm's
	// draws (default: Seed).
	ScenarioSeed int64
	// Phases, when non-nil, accumulates per-phase wall time (spectra,
	// step, inject, commit, graph-swap) for this run — the session-level
	// hook of the telemetry layer (internal/obs). The nil default
	// collects nothing and costs nothing: every clock read in the round
	// loop is gated behind the nil check, so untelemetered runs keep the
	// zero-allocation hot loop. Timings are observational only; they
	// never influence the run, so results are byte-identical either way.
	Phases *obs.Phases
	// OnRound, when non-nil, is the session's one per-round consumer:
	// Commit hands it each committed round. It may read the session but
	// not advance it (lbserved's metrics fold; nil for batch runs). A
	// consumer makes the session a daemon session, which may run without
	// end: it keeps O(1) memory per round, reports no Result.Trace, and
	// its SteadyRMS averages at most the last SteadyWindow potentials
	// (see Session).
	OnRound func(Round)
}

// Result reports a run: Close's sealed record, or Metrics' live view of
// a session between rounds. The embedded batch.Outcome is the part a
// sweep journals (rounds, Φ⁰ → Φᵉⁿᵈ, convergence, the theorem bound, the
// scenario metrics and Reason); the rest is not journaled.
type Result struct {
	batch.Outcome
	// Algorithm and Mode echo the configuration.
	Algorithm Algorithm
	Mode      Mode
	// Trace is the full Φ trajectory (entry t is Φ after round t); nil
	// for a daemon session (Config.OnRound set), which keeps no history.
	Trace []float64
	// Lambda2 and Delta are the spectral inputs of the paper's bounds
	// (Lambda2 is 0 when not computed, e.g. for RandomPartners).
	Lambda2 float64
	Delta   int
}

// ReasonDisconnected is the Result.Reason of a static run on a
// disconnected graph. The paper states its theorems for connected graphs:
// with λ₂ = 0 there is no bound to run to, and the components' averages
// differ, so Φ cannot reach ε·Φ⁰. Such a run ends before round 1,
// unconverged.
const ReasonDisconnected = "disconnected"

// Validate rejects configurations Balance cannot run: a missing graph, a
// load vector of the wrong length or with non-finite/negative entries, a
// discrete load whose truncated total does not fit in int64, an Epsilon
// outside (0,1) other than 0, which means "use the default", and
// algorithm/mode combinations that do not exist.
// Balance, Open and lbserved all gate on this one method, so a bad config
// is rejected identically everywhere.
func (cfg Config) Validate() error {
	if cfg.Graph == nil {
		return errors.New("core: Config.Graph is required")
	}
	n := cfg.Graph.N()
	if len(cfg.Loads) != n {
		return fmt.Errorf("core: %d loads for %d nodes", len(cfg.Loads), n)
	}
	if cfg.Epsilon < 0 || cfg.Epsilon >= 1 || math.IsNaN(cfg.Epsilon) {
		return fmt.Errorf("core: Epsilon %v must be in (0,1), or 0 for the default", cfg.Epsilon)
	}
	var tokens int64
	for i, v := range cfg.Loads {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: invalid load %v at node %d", v, i)
		}
		if cfg.Mode == Discrete {
			if v >= 1<<63 || tokens > math.MaxInt64-int64(v) {
				return fmt.Errorf("core: discrete load total overflows int64 at node %d", i)
			}
			tokens += int64(v)
		}
	}
	if (cfg.Algorithm == FirstOrder || cfg.Algorithm == SecondOrder) && cfg.Mode == Discrete {
		return fmt.Errorf("core: %v supports continuous mode only", cfg.Algorithm)
	}
	return nil
}

// withDefaults returns cfg with the documented zero-value defaults filled
// in: Epsilon 1e-3, Seed 1, Workers 1, ScenarioSeed = Seed. MaxRounds is
// left alone — its default depends on the theorem bound, which Session
// resolves (see Session.Horizon).
func (cfg Config) withDefaults() Config {
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ScenarioSeed == 0 {
		cfg.ScenarioSeed = cfg.Seed
	}
	return cfg
}

// Balance validates cfg, runs it to completion, and reports the outcome
// next to the matching theorem bound: Open, the one round loop every
// scenario runs through, static included (runScenario), then Close.
func Balance(cfg Config) (Result, error) {
	s, err := Open(cfg)
	if err != nil {
		return Result{}, err
	}
	return runScenario(s)
}

// System is the stepper surface every balancing algorithm in this
// repository exposes (diffusion, dimexchange, randpair, async, …): one Step
// call is one synchronous round of the paper's model.
type System interface {
	// Step advances the system one synchronous round.
	Step()
	// Potential returns Φ of the current load distribution.
	Potential() float64
}

// Stepper is a System whose live load state can be read — and mutated in
// place — between rounds: float64 loads in continuous mode, int64 tokens
// in discrete mode. Values is the session's injection hook: arrivals land
// directly in the live vector, without knowing the concrete algorithm or
// rebuilding the stepper. Every stepper core builds is one.
type Stepper[T load.Value] interface {
	System
	// Values returns the live per-node loads or tokens (not a copy).
	Values() []T
}

// buildSystemOn constructs the requested stepper on an explicit graph and
// load vector with an explicit RNG — the factory Open and SwapGraph share;
// SwapGraph uses it to rebuild a stepper whose state derives from the
// graph when the active graph changes mid-run. Its persistent rng keeps a
// randomized algorithm's draw stream continuous across rebuilds, so a
// run's randomness does not restart with each churn.
// The second-order scheme's γ of the configured graph, which recurs across
// units, comes through the process-wide speccache. Any other graph is a
// churned subgraph that a session activates at most once, so its γ is
// solved directly: a cache entry (or disk spill) would never be read again.
func buildSystemOn(cfg Config, g *graph.G, loads []float64, rng *rand.Rand) (System, error) {
	switch {
	case cfg.Algorithm == FirstOrder:
		st := diffusion.NewFirstOrder(g, loads)
		st.Workers = cfg.Workers
		return st, nil
	case cfg.Algorithm == SecondOrder:
		gammaOf := spectral.GammaOf
		if g == cfg.Graph {
			gammaOf = speccache.Gamma
		}
		gamma, err := gammaOf(g)
		if err != nil {
			return nil, fmt.Errorf("core: γ for second-order β: %w", err)
		}
		st := diffusion.NewSecondOrder(g, loads, diffusion.OptimalBeta(gamma))
		st.Workers = cfg.Workers
		return st, nil
	case cfg.Mode == Discrete:
		return build(cfg, g, toTokens(loads), rng)
	default:
		return build(cfg, g, loads, rng)
	}
}

// build constructs the algorithms that run in both modes, over float64
// loads or int64 tokens.
func build[T load.Value](cfg Config, g *graph.G, loads []T, rng *rand.Rand) (Stepper[T], error) {
	switch cfg.Algorithm {
	case Diffusion:
		st := diffusion.New(g, loads)
		st.Workers = cfg.Workers
		return st, nil
	case DimensionExchange:
		st := dimexchange.New(g, loads, rng)
		st.Workers = cfg.Workers
		return st, nil
	case RandomPartners:
		st := randpair.New(loads, rng)
		st.Workers = cfg.Workers
		return st, nil
	case RoundRobinExchange:
		st := dimexchange.NewRoundRobin(g, loads)
		st.Workers = cfg.Workers
		return st, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", cfg.Algorithm)
	}
}

// SpikeLoads places the whole load on node 0 — the canonical hard start.
// Test-only: core's Balance, Session, scenario and round-worker tests,
// the root integration tests and Example_quickstart.
func SpikeLoads(n int, total float64) []float64 {
	v := make([]float64, n)
	if n > 0 {
		v[0] = total
	}
	return v
}

// toTokens truncates a continuous load vector to integer tokens.
func toTokens(loads []float64) []int64 {
	out := make([]int64, len(loads))
	for i, v := range loads {
		out[i] = int64(v)
	}
	return out
}
