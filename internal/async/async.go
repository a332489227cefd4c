// Package async implements an asynchronous, edge-at-a-time balancer in the
// spirit of Cortés et al. [5], which the paper cites as the asynchronous
// counterpart of its model: at every tick one edge is activated (drawn
// uniformly, or round-robin) and its endpoints balance pairwise — to the
// exact average in the continuous case, moving ⌊diff/2⌋ tokens in the
// discrete case.
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

// Continuous is the asynchronous continuous balancer.
type Continuous struct {
	G        *graph.G
	Load     *load.Continuous
	Schedule Schedule
	RNG      *rand.Rand

	tick int
}

// NewContinuous creates a balancer over a copy of the initial loads.
func NewContinuous(g *graph.G, initial []float64, sched Schedule, rng *rand.Rand) *Continuous {
	if len(initial) != g.N() {
		panic("async: initial load length mismatch")
	}
	return &Continuous{G: g, Load: load.NewContinuous(initial), Schedule: sched, RNG: rng}
}

// Tick activates one edge: its endpoints average their load exactly.
func (c *Continuous) Tick() {
	m := c.G.M()
	if m == 0 {
		return
	}
	var e graph.Edge
	if c.Schedule == RoundRobin {
		e = c.G.Edges()[c.tick%m]
	} else {
		e = c.G.Edges()[c.RNG.Intn(m)]
	}
	c.tick++
	v := c.Load.Vector()
	avg := (v[e.U] + v[e.V]) / 2
	v[e.U], v[e.V] = avg, avg
}

// Step runs m ticks — the edge-activation budget of one synchronous
// Algorithm 1 round — so the type satisfies core.System with a comparable
// notion of "round".
func (c *Continuous) Step() {
	for k := 0; k < c.G.M(); k++ {
		c.Tick()
	}
}

// Potential returns Φ of the current distribution.
func (c *Continuous) Potential() float64 { return c.Load.Potential() }

// Ticks returns the number of edge activations so far.
func (c *Continuous) Ticks() int { return c.tick }

// Discrete is the asynchronous discrete balancer (⌊diff/2⌋ tokens per
// activation, the [5] / [12] pairwise rule).
type Discrete struct {
	G        *graph.G
	Load     *load.Discrete
	Schedule Schedule
	RNG      *rand.Rand

	tick int
}

// NewDiscrete creates a balancer over a copy of the initial tokens.
func NewDiscrete(g *graph.G, initial []int64, sched Schedule, rng *rand.Rand) *Discrete {
	if len(initial) != g.N() {
		panic("async: initial token length mismatch")
	}
	return &Discrete{G: g, Load: load.NewDiscrete(initial), Schedule: sched, RNG: rng}
}

// Tick activates one edge and moves ⌊|ℓᵢ−ℓⱼ|/2⌋ tokens downhill.
func (d *Discrete) Tick() {
	m := d.G.M()
	if m == 0 {
		return
	}
	var e graph.Edge
	if d.Schedule == RoundRobin {
		e = d.G.Edges()[d.tick%m]
	} else {
		e = d.G.Edges()[d.RNG.Intn(m)]
	}
	d.tick++
	v := d.Load.Tokens()
	hi, lo := e.U, e.V
	if v[hi] < v[lo] {
		hi, lo = lo, hi
	}
	t := (v[hi] - v[lo]) / 2
	v[hi] -= t
	v[lo] += t
}

// Step runs m ticks (one synchronous-round budget).
func (d *Discrete) Step() {
	for k := 0; k < d.G.M(); k++ {
		d.Tick()
	}
}

// Potential returns Φ of the current distribution.
func (d *Discrete) Potential() float64 { return d.Load.Potential() }

// Ticks returns the number of edge activations so far.
func (d *Discrete) Ticks() int { return d.tick }
