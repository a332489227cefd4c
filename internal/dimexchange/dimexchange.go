// Package dimexchange implements the dimension-exchange baseline of Ghosh
// and Muthukrishnan [12]: in every round a random matching of the network
// is generated, and each matched pair balances by exchanging half of its
// load difference (continuous) or ⌊·/2⌋ tokens (discrete). The
// deterministic variant the paper attributes to [3] cycles a fixed
// schedule of matchings instead.
//
// One type, Stepper[T], serves both models and both matching sources. Its
// only per-type rule is PairRule — the exact average for float64 loads,
// the ⌊diff/2⌋ downhill move for int64 tokens — picked once at
// construction; the random and round-robin steppers differ only in where a
// round's matching comes from.
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
	"slices"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/parallel"
)

// matchingPartners fills partner with each node's mate in matching m (−1 for
// unmatched nodes), growing the scratch slice as needed. A matching touches
// every node at most once, so a node-parallel apply over the partner array
// performs exactly the serial loop's one pair-rule application per matched
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

// RandomMatching draws a random matching of g into a fresh slice; see
// matcher.draw for the procedure.
// Test-only: TestRandomMatching*, TestMatchingInclusionProbabilityLowerBound, BenchmarkRandomMatching.
func RandomMatching(g *graph.G, rng *rand.Rand) []graph.Edge {
	var mt matcher
	return mt.draw(g, rng)
}

// matcher is the reusable scratch of the random-matching draw, so a
// stepper's rounds allocate nothing once the buffers have grown.
type matcher struct {
	proposal []int
	matched  []bool
	edges    []graph.Edge
}

// draw returns a random matching of g, valid until the next draw. The
// procedure follows [12]: each free node picks one incident edge uniformly
// at random (a proposal); an edge enters the matching if both endpoints
// proposed it. One proposal round per balancing round keeps the per-edge
// inclusion probability at least 1/(4δ) for edges between degree-≤δ
// endpoints, matching the 1/8δ style bound used in the analysis.
func (mt *matcher) draw(g *graph.G, rng *rand.Rand) []graph.Edge {
	n := g.N()
	if cap(mt.proposal) < n {
		// A matching has at most n/2 edges, so the edge buffer never
		// grows after this.
		mt.proposal, mt.matched = make([]int, n), make([]bool, n)
		mt.edges = make([]graph.Edge, 0, n/2)
	}
	proposal, matched := mt.proposal[:n], mt.matched[:n]
	clear(matched)
	// CSR rows replay the Neighbors order exactly, so the rng.Intn draw
	// sequence — and with it every sampled matching — is unchanged.
	off, tgt := g.CSR()
	for i := 0; i < n; i++ {
		deg := off[i+1] - off[i]
		if deg == 0 {
			proposal[i] = -1
			continue
		}
		proposal[i] = int(tgt[off[i]+rng.Intn(deg)])
	}
	m := mt.edges[:0]
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
	mt.edges = m
	return m
}

// PairRule returns the rule a matched pair (a, b) balances by, chosen
// once per type: the exact average for float64 loads, and a move of
// ⌊|a−b|/2⌋ tokens from the heavier to the lighter endpoint for int64.
// Both rules are symmetric — PairRule()(b, a) swaps the results of
// PairRule()(a, b) — so a node's new load is the first result of the rule
// applied to (its load, its partner's load).
func PairRule[T load.Value]() func(a, b T) (T, T) {
	var rule any = averagePair
	if _, tokens := any(T(0)).(int64); tokens {
		rule = tokenPair
	}
	return rule.(func(a, b T) (T, T))
}

func averagePair(a, b float64) (float64, float64) {
	avg := (a + b) / 2
	return avg, avg
}

func tokenPair(a, b int64) (int64, int64) {
	if a < b {
		t := (b - a) / 2
		return a + t, b - t
	}
	t := (a - b) / 2
	return a - t, b + t
}

// Stepper is the dimension-exchange stepper over float64 loads or int64
// tokens. Each round activates one matching of G and every matched pair
// balances with PairRule. The matching comes from one of two sources,
// fixed at construction: a fresh random matching per round (New, the [12]
// baseline) or a fixed schedule of matchings cycled round-robin
// (NewRoundRobin, the deterministic exchange the paper's introduction
// attributes to [3]).
type Stepper[T load.Value] struct {
	G *graph.G
	// Classes is the round-robin schedule: round t activates class
	// t mod len(Classes). Nil for random matchings.
	Classes [][]graph.Edge
	// Workers > 1 fans the pair loop over goroutines; results are
	// bit-identical for any value (the matching touches each node at most
	// once).
	Workers int

	// LastMatching is the matching used by the most recent Step, valid
	// until the next one; exposed for the tests that validate the
	// matching distribution.
	LastMatching []graph.Edge

	loads []T
	pair  func(a, b T) (T, T)
	rng   *rand.Rand // the random source; nil for a schedule
	round int

	matcher matcher
	partner []int
	next    []T
}

// New creates a random-matching stepper over a copy of the initial loads
// or tokens.
func New[T load.Value](g *graph.G, initial []T, rng *rand.Rand) *Stepper[T] {
	st := newStepper(g, initial)
	st.rng = rng
	return st
}

// NewRoundRobin creates a round-robin stepper whose schedule is a greedy
// edge coloring of g: each color class is a matching, so every edge
// balances exactly once per sweep.
func NewRoundRobin[T load.Value](g *graph.G, initial []T) *Stepper[T] {
	colors, num := graph.EdgeColoring(g)
	return NewRoundRobinWithClasses(g, initial, graph.ColorClasses(g, colors, num))
}

// NewRoundRobinWithClasses uses a caller-provided matching schedule (e.g.
// graph.HypercubeDimensionClasses, under which a continuous run on the
// hypercube balances perfectly after one sweep of the d dimensions).
func NewRoundRobinWithClasses[T load.Value](g *graph.G, initial []T, classes [][]graph.Edge) *Stepper[T] {
	st := newStepper(g, initial)
	st.Classes = classes
	return st
}

func newStepper[T load.Value](g *graph.G, initial []T) *Stepper[T] {
	if len(initial) != g.N() {
		panic("dimexchange: initial load length mismatch")
	}
	return &Stepper[T]{G: g, loads: slices.Clone(initial), pair: PairRule[T]()}
}

// SetGraph moves a random-matching stepper onto g, which must have the same
// node count. Each round draws its matching from the active graph, so the
// loads, the RNG and the round scratch carry over unchanged. A round-robin
// stepper cannot move: its schedule is a colouring of the graph it was
// built on, so SetGraph panics on one.
func (s *Stepper[T]) SetGraph(g *graph.G) {
	if s.rng == nil {
		panic("dimexchange: SetGraph on a round-robin stepper")
	}
	if g.N() != len(s.loads) {
		panic("dimexchange: SetGraph node count mismatch")
	}
	s.G = g
}

// Sweep returns the number of rounds per full schedule cycle (0 for random
// matchings).
func (s *Stepper[T]) Sweep() int { return len(s.Classes) }

// matching returns this round's matching from the stepper's source.
func (s *Stepper[T]) matching() []graph.Edge {
	if s.rng != nil {
		return s.matcher.draw(s.G, s.rng)
	}
	if len(s.Classes) == 0 {
		return nil
	}
	m := s.Classes[s.round%len(s.Classes)]
	s.round++
	return m
}

// Step activates this round's matching and balances each matched pair.
func (s *Stepper[T]) Step() {
	m := s.matching()
	s.LastMatching = m
	v := s.loads
	w := parallel.StepperWorkers(s.Workers)
	if w == 1 {
		for _, e := range m {
			v[e.U], v[e.V] = s.pair(v[e.U], v[e.V])
		}
		return
	}
	n := s.G.N()
	s.partner = matchingPartners(s.partner, n, m)
	if len(s.next) < n {
		s.next = make([]T, n)
	}
	parallel.For(n, w, func(i int) {
		li := v[i]
		if j := s.partner[i]; j >= 0 {
			li, _ = s.pair(li, v[j])
		}
		s.next[i] = li
	})
	copy(v, s.next[:n])
}

// Potential returns Φ of the current distribution.
func (s *Stepper[T]) Potential() float64 { return load.Potential(s.loads) }

// Values returns the live loads or tokens (not a copy) — the core
// injection hook.
func (s *Stepper[T]) Values() []T { return s.loads }
