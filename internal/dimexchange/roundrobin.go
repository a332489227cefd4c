package dimexchange

import (
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/parallel"
)

// classPartners precomputes, per color class, each node's mate (−1 when the
// class leaves it unmatched). The schedule is fixed for the stepper's
// lifetime, so the parallel path pays for the arrays once, not per round.
func classPartners(n int, classes [][]graph.Edge) [][]int {
	out := make([][]int, len(classes))
	for k, class := range classes {
		out[k] = matchingPartners(nil, n, class)
	}
	return out
}

// RoundRobin is the deterministic dimension-exchange balancer the paper's
// introduction attributes to [3]: balancing partners are fixed in a
// predetermined cyclic order. We realize the schedule with a proper edge
// coloring — each color class is a matching, and round t activates class
// t mod k, so every edge balances exactly once per k rounds.
//
// On the hypercube with its natural dimension coloring this is the classic
// all-dimension exchange: a continuous run balances *perfectly* after one
// full sweep of the d dimensions, which the tests assert.
type RoundRobin struct {
	G       *graph.G
	Load    *load.Continuous
	Classes [][]graph.Edge
	// Workers > 1 fans the pair-averaging loop over goroutines; results
	// are bit-identical for any value.
	Workers int

	round    int
	partners [][]int
	next     []float64
}

// NewRoundRobin builds the schedule from a greedy edge coloring of g.
func NewRoundRobin(g *graph.G, initial []float64) *RoundRobin {
	if len(initial) != g.N() {
		panic("dimexchange: initial load length mismatch")
	}
	colors, num := graph.EdgeColoring(g)
	return &RoundRobin{
		G:       g,
		Load:    load.NewContinuous(initial),
		Classes: graph.ColorClasses(g, colors, num),
	}
}

// NewRoundRobinWithClasses uses a caller-provided matching schedule (e.g.
// graph.HypercubeDimensionClasses for the perfect hypercube sweep).
func NewRoundRobinWithClasses(g *graph.G, initial []float64, classes [][]graph.Edge) *RoundRobin {
	if len(initial) != g.N() {
		panic("dimexchange: initial load length mismatch")
	}
	return &RoundRobin{G: g, Load: load.NewContinuous(initial), Classes: classes}
}

// Sweep returns the number of rounds per full schedule cycle.
func (r *RoundRobin) Sweep() int { return len(r.Classes) }

// Step activates the next matching in the cycle; matched pairs average.
func (r *RoundRobin) Step() {
	if len(r.Classes) == 0 {
		return
	}
	k := r.round % len(r.Classes)
	class := r.Classes[k]
	r.round++
	v := r.Load.Vector()
	w := parallel.StepperWorkers(r.Workers)
	if w == 1 {
		for _, e := range class {
			avg := (v[e.U] + v[e.V]) / 2
			v[e.U], v[e.V] = avg, avg
		}
		return
	}
	n := r.G.N()
	if r.partners == nil {
		r.partners = classPartners(n, r.Classes)
	}
	partner := r.partners[k]
	if len(r.next) < n {
		r.next = make([]float64, n)
	}
	parallel.For(n, w, func(i int) {
		if j := partner[i]; j >= 0 {
			r.next[i] = (v[i] + v[j]) / 2
		} else {
			r.next[i] = v[i]
		}
	})
	copy(v, r.next[:n])
}

// Potential returns Φ of the current distribution.
func (r *RoundRobin) Potential() float64 { return r.Load.Potential() }

// LoadVector returns the live load vector (implements core.ContinuousState).
func (r *RoundRobin) LoadVector() []float64 { return r.Load.Vector() }

// RoundRobinDiscrete is the token version: matched pairs move ⌊diff/2⌋.
type RoundRobinDiscrete struct {
	G       *graph.G
	Load    *load.Discrete
	Classes [][]graph.Edge
	// Workers > 1 fans the pair-balancing loop over goroutines; results
	// are identical for any value.
	Workers int

	round    int
	partners [][]int
	next     []int64
}

// NewRoundRobinDiscrete builds the discrete schedule from a greedy edge
// coloring.
func NewRoundRobinDiscrete(g *graph.G, initial []int64) *RoundRobinDiscrete {
	if len(initial) != g.N() {
		panic("dimexchange: initial token length mismatch")
	}
	colors, num := graph.EdgeColoring(g)
	return &RoundRobinDiscrete{
		G:       g,
		Load:    load.NewDiscrete(initial),
		Classes: graph.ColorClasses(g, colors, num),
	}
}

// Step activates the next matching in the cycle.
func (r *RoundRobinDiscrete) Step() {
	if len(r.Classes) == 0 {
		return
	}
	k := r.round % len(r.Classes)
	class := r.Classes[k]
	r.round++
	v := r.Load.Tokens()
	w := parallel.StepperWorkers(r.Workers)
	if w == 1 {
		for _, e := range class {
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
	n := r.G.N()
	if r.partners == nil {
		r.partners = classPartners(n, r.Classes)
	}
	partner := r.partners[k]
	if len(r.next) < n {
		r.next = make([]int64, n)
	}
	parallel.For(n, w, func(i int) {
		li := v[i]
		if j := partner[i]; j >= 0 {
			if lj := v[j]; li > lj {
				li -= (li - lj) / 2
			} else if lj > li {
				li += (lj - li) / 2
			}
		}
		r.next[i] = li
	})
	copy(v, r.next[:n])
}

// Potential returns Φ of the current distribution.
func (r *RoundRobinDiscrete) Potential() float64 { return r.Load.Potential() }

// LoadTokens returns the live token counts (implements core.DiscreteState).
func (r *RoundRobinDiscrete) LoadTokens() []int64 { return r.Load.Tokens() }
