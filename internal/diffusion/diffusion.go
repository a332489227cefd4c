// Package diffusion implements the paper's primary contribution surface:
// Algorithm 1 ("diff-balancing"), the synchronous diffusion load balancer in
// which every node concurrently compares its load with every neighbour and
// sends (ℓᵢ − ℓⱼ)/(4·max(dᵢ, dⱼ)) to each lighter neighbour j — in the
// continuous model (fractional load, §4.1) and the discrete model
// (indivisible tokens, floor of the same quantity, §4.2).
//
// Both models run on one type, Stepper[T], generic over float64 loads and
// int64 tokens. The discrete model is the continuous transfer rule,
// floored, and that is the only per-type rule in the round body: the
// transfer is computed in float64 and converted to T, which is a no-op for
// float64 and truncation toward zero for int64.
//
// The package also implements the classical comparators the paper discusses,
// each as one type that owns a plain load vector and exposes it through
// Values: the first-order scheme Lᵗ⁺¹ = M·Lᵗ with uniform diffusion factor
// α = 1/(δ+1), FirstOrder[T] — Cybenko's continuous scheme [3] over
// float64, the floored scheme of Muthukrishnan, Ghosh and Schultz [15]
// over int64 — the second-order scheme of [15] with momentum parameter β,
// the Optimal Polynomial Scheme of [7], and a dense MatrixStepper
// reference. Algorithm 1 and the first-order scheme both report through
// FixedPoint when a round would move nothing, by the per-edge rule their
// Step applies.
//
// All steppers are deterministic; one round reads the round-start load
// vector and applies all edge flows computed from it, exactly matching the
// paper's synchronous model. Because each node's next load is a function of
// the round-start vector only, rounds are data-parallel and the steppers
// accept a worker count (see internal/parallel).
package diffusion

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/parallel"
)

// Flow records the net transfer across one edge in one round; Amount > 0
// moves load from Edge.U to Edge.V, Amount < 0 the other way.
type Flow struct {
	Edge   graph.Edge
	Amount float64
}

// EdgeWeight returns the magnitude of the Algorithm 1 transfer across edge
// (i, j) for round-start loads li, lj:
//
//	w_ij = |ℓᵢ − ℓⱼ| / (4·max(dᵢ, dⱼ)).
//
// This is the weight the sequentialized analysis sorts edges by.
func EdgeWeight(g *graph.G, i, j int, li, lj float64) float64 {
	di, dj := g.Degree(i), g.Degree(j)
	if dj > di {
		di = dj
	}
	return math.Abs(li-lj) / (4 * float64(di))
}

// RoundFlows computes the per-edge flows Algorithm 1 sends in one round
// from the given loads, without applying them: (ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ))
// from the heavier endpoint for float64 loads, its floor for int64
// tokens (the conversion to T truncates, and the weight is non-negative).
func RoundFlows[T load.Value](g *graph.G, l []T) []Flow {
	flows := make([]Flow, 0, g.M())
	for _, e := range g.Edges() {
		li, lj := float64(l[e.U]), float64(l[e.V])
		w := float64(T(EdgeWeight(g, e.U, e.V, li, lj)))
		if w == 0 {
			continue
		}
		amt := w
		if li < lj {
			amt = -w
		}
		flows = append(flows, Flow{Edge: e, Amount: amt})
	}
	return flows
}

// Stepper is the stateful Algorithm 1 stepper on one graph at a time (G;
// SetGraph moves it to another), over float64 loads (the continuous model)
// or int64 tokens (the discrete model). Workers > 1 enables the
// goroutine-parallel round executor.
type Stepper[T load.Value] struct {
	G       *graph.G
	Workers int

	cur, next []T         // the round-start/next double buffer
	body      func(i int) // the round body, built once per graph (see Step)
}

// New creates a stepper over a copy of the initial loads or tokens.
func New[T load.Value](g *graph.G, initial []T) *Stepper[T] {
	if len(initial) != g.N() {
		panic("diffusion: initial load length mismatch")
	}
	return &Stepper[T]{G: g, cur: slices.Clone(initial)}
}

// Step advances one synchronous round of Algorithm 1.
//
// Node i's next load depends only on the round-start vector:
//
//	ℓᵢ′ = ℓᵢ − Σ_{j∼i: ℓᵢ>ℓⱼ} w_ij + Σ_{j∼i: ℓⱼ>ℓᵢ} w_ij
//	    = ℓᵢ + Σ_{j∼i} (ℓⱼ − ℓᵢ)/(4·max(dᵢ, dⱼ)),
//
// so each node is computed independently — this is the concurrency the
// paper's proof technique is about, and it is also what makes the parallel
// executor safe without synchronization beyond the round barrier. In the
// discrete model every edge moves ⌊|ℓᵢ−ℓⱼ|/(4·max(dᵢ,dⱼ))⌋ tokens; both
// endpoints compute the same flow from the same round-start counts, so
// the node-parallel formulation remains exact.
//
// The first Step on a graph builds one of two round bodies, by
// g.IsRegular(), and every later Step reuses it until SetGraph. On a
// δ-regular graph max(dᵢ, dⱼ) = δ on every edge, so regularBody divides by
// the one constant D = 4δ and skips the per-edge gather of both endpoint
// degrees. Any other graph — star, path, tree, de Bruijn, every churned
// subgraph — takes the general body, which gathers max(dᵢ, dⱼ) per edge.
// Both bodies run the same IEEE operations on the same operands in the
// same neighbour order (the divisor is 4·float64(δ) either way), so the
// choice leaves every load and token bit-identical.
func (s *Stepper[T]) Step() {
	g, cur := s.G, s.cur
	n := g.N()
	if s.next == nil {
		s.next = make([]T, n)
	}
	switch {
	case s.body != nil:
		// Built by an earlier Step since the last SetGraph.
	case g.IsRegular():
		s.body = regularBody(g, cur, s.next)
	default:
		// The round body scans the CSR rows — one contiguous index stream —
		// instead of pointer-chasing per-node slices. Neighbour order and the
		// floating-point operation chain are identical to the slice form (the
		// CSR contract in graph.CSR), so checksums match bit-for-bit. The
		// closure is built once per graph: the graph, the CSR arrays and the
		// load vector's backing storage are all fixed until SetGraph, and a
		// per-Step closure would put one heap allocation in the round hot
		// loop.
		off, tgt := g.CSR()
		next := s.next
		s.body = func(i int) {
			li := cur[i]
			acc := li
			// Reslicing the row once keeps the inner loop free of repeated
			// offset loads and target bounds checks.
			row := tgt[off[i]:off[i+1]]
			di := len(row)
			// "The heavier endpoint sends |ℓᵢ−ℓⱼ|/D" is written as one
			// signed update, with no abs and no sign branch to mispredict.
			// It is bit-identical to the abs-and-branch form: IEEE
			// subtraction and division are sign-symmetric under
			// round-to-nearest (ℓⱼ−ℓᵢ = −(ℓᵢ−ℓⱼ) and (−x)/D = −(x/D),
			// both exact), and a − w ≡ a + (−w). The ℓᵢ == ℓⱼ skip stays:
			// without it a node holding −0 next to a +0 neighbour would
			// add +0 and turn into +0.
			//
			// The acc update is the only place the two models differ. For
			// float64 the conversions vanish; for int64 the transfer is
			// computed in float64 and T(·) truncates it toward zero —
			// symmetric too, so it is the floor of the heavier endpoint's
			// transfer.
			for _, j := range row {
				lj := cur[j]
				if li == lj {
					continue
				}
				d := di
				if dj := int(off[j+1] - off[j]); dj > d {
					d = dj
				}
				acc += T((float64(lj) - float64(li)) / (4 * float64(d)))
			}
			next[i] = acc
		}
	}
	parallel.For(n, parallel.StepperWorkers(s.Workers), s.body)
	copy(cur, s.next)
}

// SetGraph moves the stepper onto g, which must have the same node count:
// the loads and the double buffer stay, and the next Step builds the round
// body for g. Algorithm 1's only state is its load vector, so this is the
// same stepper New would build on g from the current loads, without copying
// them (a churned run's graph changes every round).
func (s *Stepper[T]) SetGraph(g *graph.G) {
	if g.N() != len(s.cur) {
		panic("diffusion: SetGraph node count mismatch")
	}
	s.G, s.body = g, nil
}

// regularBody is Step's round body on a δ-regular graph: the general body
// with the divisor 4·max(dᵢ, dⱼ) hoisted out as D = 4δ. The signed update
// and the ℓᵢ == ℓⱼ skip are the general body's, for the reasons given there.
func regularBody[T load.Value](g *graph.G, cur, next []T) func(i int) {
	off, tgt := g.CSR()
	D := 4 * float64(g.MaxDegree())
	return func(i int) {
		li := cur[i]
		acc := li
		for _, j := range tgt[off[i]:off[i+1]] {
			lj := cur[j]
			if li == lj {
				continue
			}
			acc += T((float64(lj) - float64(li)) / D)
		}
		next[i] = acc
	}
}

// FixedPoint reports whether a full round would move no load: every edge's
// transfer, converted to T as Step converts it, is zero. For tokens this
// detects the discrete model's termination exactly; float64 loads are
// fixed only once every edge is balanced.
func (s *Stepper[T]) FixedPoint() bool {
	for _, e := range s.G.Edges() {
		if T(EdgeWeight(s.G, e.U, e.V, float64(s.cur[e.U]), float64(s.cur[e.V]))) != 0 {
			return false
		}
	}
	return true
}

// Potential returns Φ of the current distribution.
func (s *Stepper[T]) Potential() float64 { return load.Potential(s.cur) }

// Values returns the live loads or tokens (not a copy) — the scenario
// engine's between-round injection hook.
func (s *Stepper[T]) Values() []T { return s.cur }

// DiscreteThreshold returns the paper's Theorem 6 residual threshold
// 64·δ³·n/λ₂ below which the discrete analysis stops guaranteeing progress.
func DiscreteThreshold(g *graph.G, lambda2 float64) float64 {
	delta := float64(g.MaxDegree())
	return 64 * delta * delta * delta * float64(g.N()) / lambda2
}

// ContinuousBound returns the Theorem 4 round bound T = 4δ·ln(1/ε)/λ₂ for
// reducing the potential to ε·Φ(L⁰).
func ContinuousBound(g *graph.G, lambda2, eps float64) float64 {
	return 4 * float64(g.MaxDegree()) * math.Log(1/eps) / lambda2
}

// DiscreteBound returns the Theorem 6 round bound
// T = 8δ·ln(λ₂Φ⁰/(64δ³n))/λ₂ for reaching the DiscreteThreshold.
func DiscreteBound(g *graph.G, lambda2, phi0 float64) float64 {
	thr := DiscreteThreshold(g, lambda2)
	if phi0 <= thr {
		return 0
	}
	return 8 * float64(g.MaxDegree()) * math.Log(phi0/thr) / lambda2
}
