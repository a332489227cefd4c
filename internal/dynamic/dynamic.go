// Package dynamic implements the dynamic-network model of §5 (after
// Elsässer, Monien and Schamberger [10]): the node set is fixed but the
// edge set may change every round, described by a sequence of graphs
// (G_k)_{k≥0}; every node knows its active edges in the current round.
//
// The package provides graph-sequence generators (random subgraphs of a
// base topology, periodic edge failures, alternating topologies, random
// matchings viewed as degenerate graphs) and the per-round λ₂⁽ᵏ⁾/δ⁽ᵏ⁾
// record that Theorems 7 and 8 are stated in. Runs against a sequence are
// core.Session runs that SwapGraph to seq.Next(k) before every round k.
package dynamic

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Sequence yields the active graph of each round. Implementations must be
// deterministic given their RNG so runs are reproducible.
type Sequence interface {
	// Next returns the graph active in round k (0-based). The node count
	// must be the same for every k.
	Next(k int) *graph.G
	// N returns the (fixed) node count.
	N() int
}

// Static adapts a fixed graph to the Sequence interface.
type Static struct{ G *graph.G }

// Next returns the underlying fixed graph for every round.
func (s Static) Next(int) *graph.G { return s.G }

// N returns the node count.
func (s Static) N() int { return s.G.N() }

// RandomSubgraphs yields, each round, a random subgraph of Base in which
// every edge survives independently with probability KeepProb. When
// RequireConnected is set, rounds draw until the subgraph is connected
// (suitable only for generous KeepProb; the draw is capped and falls back
// to the base graph).
//
// A draw is one Float64 per base edge, in Base.Edges() order, written into
// a keep mask the generator owns and reuses every round; graph.G.Subgraph
// builds the round's graph from it. That fixed stream is what keeps churn
// trajectories reproducible.
type RandomSubgraphs struct {
	Base             *graph.G
	KeepProb         float64
	RequireConnected bool
	RNG              *rand.Rand

	keep []bool // the draw's mask, one entry per base edge
}

// Next draws round k's subgraph.
func (r *RandomSubgraphs) Next(k int) *graph.G {
	const maxDraws = 50
	r.keep = sized(r.keep, r.Base.M())
	keep, rng, p := r.keep, r.RNG, r.KeepProb
	for attempt := 0; attempt < maxDraws; attempt++ {
		name := fmt.Sprintf("%s@r%d", r.Base.Name(), k)
		for i := range keep {
			keep[i] = rng.Float64() < p
		}
		sub := r.Base.Subgraph(name, keep)
		if !r.RequireConnected || sub.IsConnected() {
			return sub
		}
	}
	return r.Base
}

// N returns the node count.
func (r *RandomSubgraphs) N() int { return r.Base.N() }

// Alternating cycles deterministically through a fixed list of graphs on
// the same node set — e.g. torus rounds interleaved with sparse cycle
// rounds, the "topology flapping" scenario.
type Alternating struct{ Graphs []*graph.G }

// NewAlternating validates that all graphs share a node count.
func NewAlternating(gs ...*graph.G) (*Alternating, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("dynamic: Alternating needs at least one graph")
	}
	n := gs[0].N()
	for _, g := range gs[1:] {
		if g.N() != n {
			return nil, fmt.Errorf("dynamic: node count mismatch %d vs %d", g.N(), n)
		}
	}
	return &Alternating{Graphs: gs}, nil
}

// Next returns the round-k graph.
func (a *Alternating) Next(k int) *graph.G { return a.Graphs[k%len(a.Graphs)] }

// N returns the node count.
func (a *Alternating) N() int { return a.Graphs[0].N() }

// EdgeFailures keeps the base topology but disables a fresh uniformly
// random set of FailCount edges every round — the "flaky links" scenario.
// A round draws Intn(M) until FailCount distinct edges (or all of them) are
// marked failed in a keep mask the generator owns and reuses every round.
type EdgeFailures struct {
	Base      *graph.G
	FailCount int
	RNG       *rand.Rand

	keep []bool // the draw's mask, one entry per base edge
}

// Next draws round k's graph with FailCount edges removed.
func (f *EdgeFailures) Next(k int) *graph.G {
	m := f.Base.M()
	f.keep = sized(f.keep, m)
	keep := f.keep
	for i := range keep {
		keep[i] = true
	}
	for failed := 0; failed < f.FailCount && failed < m; {
		if i := f.RNG.Intn(m); keep[i] {
			keep[i] = false
			failed++
		}
	}
	name := fmt.Sprintf("%s-fail%d@r%d", f.Base.Name(), f.FailCount, k)
	return f.Base.Subgraph(name, keep)
}

// N returns the node count.
func (f *EdgeFailures) N() int { return f.Base.N() }

// sized returns mask with m entries, reusing its storage when it already
// has m. The entries are left as they are: every draw writes all of them.
func sized(mask []bool, m int) []bool {
	if len(mask) != m {
		mask = make([]bool, m)
	}
	return mask
}

// RoundStat records the spectral state of one round of a dynamic run.
type RoundStat struct {
	Round   int
	Lambda2 float64
	Delta   int
	Phi     float64 // potential after the round
}

// Theorem8Threshold computes Φ* = 64·n·max_k(δ⁽ᵏ⁾)³/λ₂⁽ᵏ⁾ over the rounds
// recorded in stats. Rounds with λ₂ = 0 (disconnected) are skipped, as the
// paper's bound is vacuous for them.
func Theorem8Threshold(n int, stats []RoundStat) float64 {
	var worst float64
	for _, s := range stats {
		if s.Lambda2 <= 0 {
			continue
		}
		d := float64(s.Delta)
		if v := d * d * d / s.Lambda2; v > worst {
			worst = v
		}
	}
	return 64 * float64(n) * worst
}
