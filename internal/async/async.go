// Package async implements an asynchronous, edge-at-a-time balancer in the
// spirit of Cortés et al. [5], which the paper cites as the asynchronous
// counterpart of its model: at every tick one edge is activated (drawn
// uniformly, or round-robin) and its endpoints balance pairwise — to the
// exact average in the continuous case, moving ⌊diff/2⌋ tokens in the
// discrete case. Both cases are one type, Stepper[T], whose pair rule is
// dimension exchange's (dimexchange.PairRule).
//
// The asynchronous process is the degenerate end of the paper's
// sequentialization spectrum — zero concurrency — so comparing it against
// Algorithm 1 at equal *edge-activation budgets* (one synchronous round of
// Algorithm 1 activates all m edges; m async ticks activate m random ones)
// quantifies from the other side what the paper's proof technique bounds:
// how much performance concurrency costs or buys. The A5 ablation runs that
// comparison.
package async

import (
	"math/rand"
	"slices"

	"repro/internal/dimexchange"
	"repro/internal/graph"
	"repro/internal/load"
)

// Schedule selects how the next edge is chosen.
type Schedule int

const (
	// UniformRandom draws each tick's edge uniformly at random.
	UniformRandom Schedule = iota
	// RoundRobin cycles deterministically through the edge list.
	RoundRobin
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	if s == RoundRobin {
		return "roundrobin"
	}
	return "uniform"
}

// Stepper is the asynchronous balancer over float64 loads or int64
// tokens. Each activation balances the edge's endpoints with
// dimexchange.PairRule, the only per-type rule.
type Stepper[T load.Value] struct {
	G        *graph.G
	Schedule Schedule
	RNG      *rand.Rand

	loads []T
	pair  func(a, b T) (T, T)
	tick  int
}

// New creates a balancer over a copy of the initial loads or tokens.
func New[T load.Value](g *graph.G, initial []T, sched Schedule, rng *rand.Rand) *Stepper[T] {
	if len(initial) != g.N() {
		panic("async: initial load length mismatch")
	}
	return &Stepper[T]{G: g, Schedule: sched, RNG: rng, loads: slices.Clone(initial), pair: dimexchange.PairRule[T]()}
}

// Tick activates one edge: its endpoints average their load exactly
// (continuous) or move ⌊|ℓᵢ−ℓⱼ|/2⌋ tokens downhill (discrete).
func (s *Stepper[T]) Tick() {
	m := s.G.M()
	if m == 0 {
		return
	}
	var e graph.Edge
	if s.Schedule == RoundRobin {
		e = s.G.Edges()[s.tick%m]
	} else {
		e = s.G.Edges()[s.RNG.Intn(m)]
	}
	s.tick++
	v := s.loads
	v[e.U], v[e.V] = s.pair(v[e.U], v[e.V])
}

// Step runs m ticks — the edge-activation budget of one synchronous
// Algorithm 1 round — so the type satisfies core.System with a comparable
// notion of "round".
func (s *Stepper[T]) Step() {
	for k := 0; k < s.G.M(); k++ {
		s.Tick()
	}
}

// Potential returns Φ of the current distribution.
func (s *Stepper[T]) Potential() float64 { return load.Potential(s.loads) }

// Values returns the live loads or tokens (not a copy).
func (s *Stepper[T]) Values() []T { return s.loads }
