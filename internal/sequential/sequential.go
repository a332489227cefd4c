// Package sequential implements the paper's central analytical device as an
// executable system: the sequentialization of one concurrent diffusion
// round.
//
// Algorithm 1 fixes all edge flows from the round-start load vector and
// applies them simultaneously. The proof instead activates the edges one by
// one in increasing order of their weights w_ij = |ℓᵢ−ℓⱼ|/(4·max(dᵢ,dⱼ)),
// applying each (fixed, precomputed) flow to the evolving intermediate
// vector, and lower-bounds the potential drop of every single activation
// (Lemma 1: ΔΦᵗ_ℓ ≥ w_ij·|ℓᵢ−ℓⱼ|). Because the flows are fixed, the state
// after all activations is exactly the concurrent round's result, so the
// per-activation drops are an exact additive decomposition of the round's
// total drop — that is the sense in which "the concurrency can be
// neglected".
//
// This package executes that decomposition (Sequentialize), checks Lemma 1
// per activation, evaluates the Lemma 2 round bound, and measures the gap
// against a genuinely sequential greedy balancer that recomputes flows
// after every activation (GreedyRound) — quantifying what concurrency
// actually costs, the paper's headline "factor of two at most".
package sequential

import (
	"math/rand"
	"sort"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
)

// Order selects the edge-activation order of the sequentialization.
type Order int

const (
	// IncreasingWeight is the paper's order (smallest w_ij first); Lemma 1
	// is proved for this order.
	IncreasingWeight Order = iota
	// DecreasingWeight activates heaviest edges first (ablation A2).
	DecreasingWeight
	// RandomOrder activates edges in a uniformly random order (ablation A2).
	RandomOrder
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case IncreasingWeight:
		return "increasing"
	case DecreasingWeight:
		return "decreasing"
	case RandomOrder:
		return "random"
	default:
		return "unknown"
	}
}

// Activation records one edge activation of the sequentialized round.
type Activation struct {
	Edge      graph.Edge
	Weight    float64 // w_ij fixed from the round-start vector
	StartDiff float64 // |ℓᵢ − ℓⱼ| at round start
	Drop      float64 // exact potential drop of this activation
	Lemma1RHS float64 // w_ij·|ℓᵢ−ℓⱼ|, the Lemma 1 lower bound
}

// Lemma1Holds reports whether this activation satisfied Lemma 1 up to
// floating-point slack.
func (a Activation) Lemma1Holds() bool {
	const slack = 1e-9
	return a.Drop >= a.Lemma1RHS-slack*(1+a.Lemma1RHS)
}

// RoundTrace is the full decomposition of one sequentialized round.
type RoundTrace struct {
	Order       Order
	Activations []Activation
	PhiStart    float64
	PhiEnd      float64
	Lemma2RHS   float64 // (1/4δ)·Σ_{(i,j)∈E}(ℓᵢ−ℓⱼ)²
}

// TotalDrop returns Φ(start) − Φ(end) for the round.
func (rt RoundTrace) TotalDrop() float64 { return rt.PhiStart - rt.PhiEnd }

// Lemma1Violations counts activations whose exact drop fell below the
// Lemma 1 bound. For IncreasingWeight order on any graph this is 0; the
// ablation orders can and do violate it.
func (rt RoundTrace) Lemma1Violations() int {
	v := 0
	for _, a := range rt.Activations {
		if !a.Lemma1Holds() {
			v++
		}
	}
	return v
}

// Sequentialize performs the sequentialized version of one continuous
// Algorithm 1 round on graph g from load vector l (not modified), using the
// given activation order. rng is only consulted for RandomOrder.
func Sequentialize(g *graph.G, l matrix.Vector, order Order, rng *rand.Rand) RoundTrace {
	n := g.N()
	if len(l) != n {
		panic("sequential: load length mismatch")
	}
	cur := l.Clone()
	avg := cur.Mean()
	phi := load.PotentialAround(cur, avg)

	// Fix flows and weights from the round-start vector.
	edges := g.Edges()
	acts := make([]Activation, 0, len(edges))
	for _, e := range edges {
		w := diffusion.EdgeWeight(g, e.U, e.V, l[e.U], l[e.V])
		diff := l[e.U] - l[e.V]
		if diff < 0 {
			diff = -diff
		}
		acts = append(acts, Activation{Edge: e, Weight: w, StartDiff: diff, Lemma1RHS: w * diff})
	}
	switch order {
	case IncreasingWeight:
		sort.SliceStable(acts, func(i, j int) bool { return acts[i].Weight < acts[j].Weight })
	case DecreasingWeight:
		sort.SliceStable(acts, func(i, j int) bool { return acts[i].Weight > acts[j].Weight })
	case RandomOrder:
		rng.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
	}

	rt := RoundTrace{Order: order, PhiStart: phi}
	for k := range acts {
		a := &acts[k]
		if a.Weight == 0 {
			continue
		}
		// Direction: from the round-start heavier endpoint.
		from, to := a.Edge.U, a.Edge.V
		if l[from] < l[to] {
			from, to = to, from
		}
		// Exact drop of moving w between the intermediate loads — the
		// paper's own expansion 2w·(ℓ_from − ℓ_to − w). Differencing the
		// squared deviations instead cancels catastrophically once the
		// weights are many orders below the loads (spike workloads).
		a.Drop = 2 * a.Weight * (cur[from] - cur[to] - a.Weight)
		cur[from] -= a.Weight
		cur[to] += a.Weight
		phi -= a.Drop
	}
	rt.Activations = acts
	rt.PhiEnd = load.PotentialAround(cur, avg)

	delta := float64(g.MaxDegree())
	var sumSq float64
	for _, e := range edges {
		d := l[e.U] - l[e.V]
		sumSq += d * d
	}
	if delta > 0 {
		rt.Lemma2RHS = sumSq / (4 * delta)
	}
	return rt
}

// GreedyRound performs a genuinely sequential round: edges are visited in
// the given order, and each visit recomputes the transfer from the *current*
// loads (move |ℓᵢ−ℓⱼ|/(4·max(dᵢ,dⱼ)) from the currently heavier endpoint).
// This is the natural sequential analogue the proof compares against; its
// round drop can exceed the concurrent round's because later edges see the
// improvements of earlier ones. Returns the end potential.
func GreedyRound(g *graph.G, l matrix.Vector, order Order, rng *rand.Rand) float64 {
	cur := l.Clone()
	avg := cur.Mean()
	edges := append([]graph.Edge(nil), g.Edges()...)
	switch order {
	case IncreasingWeight:
		sort.SliceStable(edges, func(i, j int) bool {
			return diffusion.EdgeWeight(g, edges[i].U, edges[i].V, l[edges[i].U], l[edges[i].V]) <
				diffusion.EdgeWeight(g, edges[j].U, edges[j].V, l[edges[j].U], l[edges[j].V])
		})
	case DecreasingWeight:
		sort.SliceStable(edges, func(i, j int) bool {
			return diffusion.EdgeWeight(g, edges[i].U, edges[i].V, l[edges[i].U], l[edges[i].V]) >
				diffusion.EdgeWeight(g, edges[j].U, edges[j].V, l[edges[j].U], l[edges[j].V])
		})
	case RandomOrder:
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
	for _, e := range edges {
		w := diffusion.EdgeWeight(g, e.U, e.V, cur[e.U], cur[e.V])
		if w == 0 {
			continue
		}
		from, to := e.U, e.V
		if cur[from] < cur[to] {
			from, to = to, from
		}
		cur[from] -= w
		cur[to] += w
	}
	return load.PotentialAround(cur, avg)
}

// GapReport compares the concurrent round against its decompositions.
type GapReport struct {
	PhiStart        float64
	ConcurrentDrop  float64 // drop of the real Algorithm 1 round
	SequentialDrop  float64 // drop of the fixed-flow sequentialization (identical by construction; recorded as a cross-check)
	GreedyDrop      float64 // drop of the recomputing greedy sequential round
	Lemma1SumRHS    float64 // Σ w_ij·|ℓᵢ−ℓⱼ| — the analysis' lower bound on the round drop
	Lemma2RHS       float64
	Lemma1Violated  int
	ConcurrentRatio float64 // ConcurrentDrop / Lemma1SumRHS (≥ 1 when Lemma 1 holds edgewise)
}

// MeasureGap runs one concurrent round, its sequentialization, and the
// greedy sequential round from the same start vector and reports the drops.
func MeasureGap(g *graph.G, l matrix.Vector, rng *rand.Rand) GapReport {
	avg := l.Mean()
	phi0 := load.PotentialAround(l, avg)

	// Concurrent round.
	step := diffusion.New(g, l)
	step.Step()
	phiConc := load.PotentialAround(step.Values(), avg)

	rt := Sequentialize(g, l, IncreasingWeight, rng)
	phiGreedy := GreedyRound(g, l, IncreasingWeight, rng)

	var sumRHS float64
	for _, a := range rt.Activations {
		sumRHS += a.Lemma1RHS
	}
	rep := GapReport{
		PhiStart:       phi0,
		ConcurrentDrop: phi0 - phiConc,
		SequentialDrop: rt.TotalDrop(),
		GreedyDrop:     phi0 - phiGreedy,
		Lemma1SumRHS:   sumRHS,
		Lemma2RHS:      rt.Lemma2RHS,
		Lemma1Violated: rt.Lemma1Violations(),
	}
	if sumRHS > 0 {
		rep.ConcurrentRatio = rep.ConcurrentDrop / sumRHS
	}
	return rep
}
