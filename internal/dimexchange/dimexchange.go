// Package dimexchange implements the dimension-exchange baseline of Ghosh
// and Muthukrishnan [12]: in every round a random matching of the network
// is generated, and each matched pair balances by exchanging half of its
// load difference (continuous) or ⌊·/2⌋ tokens (discrete).
//
// The paper's §3 claims Algorithm 1 converges a constant factor faster than
// this baseline because diffusion balances over all edges concurrently
// while a matching activates each edge with probability only Θ(1/δ). The
// E11 experiment measures exactly that comparison.
//
// The random matching is generated with the standard distributed protocol
// from [12]: every node proposes to a uniformly random neighbour; an edge
// joins the matching when the proposal is mutual in a round of invitations
// and both endpoints are still free. That realizes Pr[e ∈ M] ≥ c/δ for a
// constant c, which is all the analysis needs.
package dimexchange

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/parallel"
)

// matchingPartners fills partner with each node's mate in matching m (−1 for
// unmatched nodes), growing the scratch slice as needed. A matching touches
// every node at most once, so a node-parallel apply over the partner array
// performs exactly the serial loop's one averaging operation per matched
// node — bit-identical for any worker count.
func matchingPartners(partner []int, n int, m []graph.Edge) []int {
	if cap(partner) < n {
		partner = make([]int, n)
	}
	partner = partner[:n]
	for i := range partner {
		partner[i] = -1
	}
	for _, e := range m {
		partner[e.U], partner[e.V] = e.V, e.U
	}
	return partner
}

// RandomMatching draws a random matching of g. The procedure follows [12]:
// each free node picks one incident edge uniformly at random (a proposal);
// an edge enters the matching if both endpoints proposed it. One proposal
// round per balancing round keeps the per-edge inclusion probability at
// least 1/(4δ) for edges between degree-≤δ endpoints, matching the 1/8δ
// style bound used in the analysis.
func RandomMatching(g *graph.G, rng *rand.Rand) []graph.Edge {
	n := g.N()
	proposal := make([]int, n)
	// CSR rows replay the Neighbors order exactly, so the rng.Intn draw
	// sequence — and with it every sampled matching — is unchanged.
	off, tgt := g.CSR()
	for i := 0; i < n; i++ {
		deg := off[i+1] - off[i]
		if deg == 0 {
			proposal[i] = -1
			continue
		}
		proposal[i] = tgt[off[i]+rng.Intn(deg)]
	}
	matched := make([]bool, n)
	var m []graph.Edge
	for i := 0; i < n; i++ {
		j := proposal[i]
		if j < 0 || j < i { // handle each pair once, from the smaller index
			continue
		}
		if proposal[j] == i && !matched[i] && !matched[j] {
			matched[i], matched[j] = true, true
			m = append(m, graph.Edge{U: i, V: j})
		}
	}
	return m
}

// Continuous is the continuous dimension-exchange stepper.
type Continuous struct {
	G    *graph.G
	Load *load.Continuous
	RNG  *rand.Rand
	// Workers > 1 fans the pair-averaging loop over goroutines; results
	// are bit-identical for any value (the matching touches each node at
	// most once).
	Workers int

	// LastMatching is the matching used by the most recent Step; exposed
	// for the tests that validate the matching distribution.
	LastMatching []graph.Edge

	partner []int
	next    []float64
}

// NewContinuous creates a stepper over a copy of the initial loads.
func NewContinuous(g *graph.G, initial []float64, rng *rand.Rand) *Continuous {
	if len(initial) != g.N() {
		panic("dimexchange: initial load length mismatch")
	}
	return &Continuous{G: g, Load: load.NewContinuous(initial), RNG: rng}
}

// Step draws a random matching and balances each matched pair to the exact
// average of the two loads.
func (c *Continuous) Step() {
	m := RandomMatching(c.G, c.RNG)
	c.LastMatching = m
	v := c.Load.Vector()
	w := parallel.StepperWorkers(c.Workers)
	if w == 1 {
		for _, e := range m {
			avg := (v[e.U] + v[e.V]) / 2
			v[e.U], v[e.V] = avg, avg
		}
		return
	}
	n := c.G.N()
	c.partner = matchingPartners(c.partner, n, m)
	if len(c.next) < n {
		c.next = make([]float64, n)
	}
	parallel.For(n, w, func(i int) {
		if j := c.partner[i]; j >= 0 {
			c.next[i] = (v[i] + v[j]) / 2
		} else {
			c.next[i] = v[i]
		}
	})
	copy(v, c.next[:n])
}

// Potential returns Φ of the current distribution.
func (c *Continuous) Potential() float64 { return c.Load.Potential() }

// LoadVector returns the live load vector (implements core.ContinuousState).
func (c *Continuous) LoadVector() []float64 { return c.Load.Vector() }

// Discrete is the discrete dimension-exchange stepper: matched pairs move
// ⌊|ℓᵢ−ℓⱼ|/2⌋ tokens from the heavier to the lighter endpoint.
type Discrete struct {
	G    *graph.G
	Load *load.Discrete
	RNG  *rand.Rand
	// Workers > 1 fans the pair-balancing loop over goroutines; results
	// are identical for any value.
	Workers int

	LastMatching []graph.Edge

	partner []int
	next    []int64
}

// NewDiscrete creates a stepper over a copy of the initial token counts.
func NewDiscrete(g *graph.G, initial []int64, rng *rand.Rand) *Discrete {
	if len(initial) != g.N() {
		panic("dimexchange: initial token length mismatch")
	}
	return &Discrete{G: g, Load: load.NewDiscrete(initial), RNG: rng}
}

// Step draws a random matching and balances each matched pair.
func (d *Discrete) Step() {
	m := RandomMatching(d.G, d.RNG)
	d.LastMatching = m
	v := d.Load.Tokens()
	w := parallel.StepperWorkers(d.Workers)
	if w == 1 {
		for _, e := range m {
			hi, lo := e.U, e.V
			if v[hi] < v[lo] {
				hi, lo = lo, hi
			}
			t := (v[hi] - v[lo]) / 2
			v[hi] -= t
			v[lo] += t
		}
		return
	}
	n := d.G.N()
	d.partner = matchingPartners(d.partner, n, m)
	if len(d.next) < n {
		d.next = make([]int64, n)
	}
	parallel.For(n, w, func(i int) {
		li := v[i]
		if j := d.partner[i]; j >= 0 {
			if lj := v[j]; li > lj {
				li -= (li - lj) / 2
			} else if lj > li {
				li += (lj - li) / 2
			}
		}
		d.next[i] = li
	})
	copy(v, d.next[:n])
}

// Potential returns Φ of the current distribution.
func (d *Discrete) Potential() float64 { return d.Load.Potential() }

// LoadTokens returns the live token counts (implements core.DiscreteState).
func (d *Discrete) LoadTokens() []int64 { return d.Load.Tokens() }

// IsMatching reports whether the edge set m is a matching of g (edges of g,
// pairwise disjoint endpoints). Exposed for tests and assertions.
func IsMatching(g *graph.G, m []graph.Edge) bool {
	used := make(map[int]bool, 2*len(m))
	for _, e := range m {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U], used[e.V] = true, true
	}
	return true
}
