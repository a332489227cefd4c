package diffusion

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// FirstOrder is the first-order scheme Lᵗ⁺¹ = M·Lᵗ with the uniform
// diffusion factor α = 1/(δ+1), over float64 loads or int64 tokens. Over
// float64 it is Cybenko's continuous scheme [3]; over int64 it is the
// discrete scheme of Muthukrishnan, Ghosh and Schultz [15], in which the
// heavier endpoint of every edge sends ⌊α·|ℓᵢ−ℓⱼ|⌋ tokens. It is applied
// sparsely:
//
//	ℓᵢ′ = ℓᵢ + Σ_{j∼i} T(α·(ℓⱼ − ℓᵢ)).
//
// The conversion to T is the only per-type rule: it vanishes for float64
// and truncates toward zero for int64, and α·(−x) = −(α·x) exactly, so the
// truncation is the floor of the heavier endpoint's transfer.
//
// [15] show the discrete scheme reduces the potential to O(δ²n²/ε²); the
// paper's §3 claims its own Theorem 6 threshold (64δ³n/λ₂, linear in n)
// is stronger. Experiment E17 measures both residuals side by side.
type FirstOrder[T load.Value] struct {
	G       *graph.G
	Alpha   float64
	Workers int

	cur, next []T         // the round-start/next double buffer
	body      func(i int) // the round body, built once (see Step)
}

// NewFirstOrder creates the scheme with α = 1/(δ+1) over a copy of the
// initial loads or tokens.
func NewFirstOrder[T load.Value](g *graph.G, initial []T) *FirstOrder[T] {
	if len(initial) != g.N() {
		panic("diffusion: initial load length mismatch")
	}
	return &FirstOrder[T]{
		G:     g,
		Alpha: 1 / float64(g.MaxDegree()+1),
		cur:   slices.Clone(initial),
	}
}

// Step advances one round. Like Stepper.Step, the round body is built
// on the first call, so Alpha is fixed from then on.
func (f *FirstOrder[T]) Step() {
	n := f.G.N()
	if f.body == nil {
		f.next = make([]T, n)
		f.body = firstOrderBody(f.G, f.cur, f.next, f.Alpha)
	}
	parallel.For(n, parallel.StepperWorkers(f.Workers), f.body)
	copy(f.cur, f.next)
}

// firstOrderBody returns the round body next[i] = ℓᵢ + Σ_{j∼i} T(α·(ℓⱼ − ℓᵢ))
// over the round-start vector cur. Callers build it once per stepper: the
// graph and both vectors are fixed for the stepper's lifetime, and a
// per-Step closure would be one heap allocation per round.
func firstOrderBody[T load.Value](g *graph.G, cur, next []T, alpha float64) func(i int) {
	off, tgt := g.CSR()
	return func(i int) {
		li := cur[i]
		acc := li
		for _, j := range tgt[off[i]:off[i+1]] {
			// The transfer is written out, not called: the compiler does
			// not inline generic calls inside a generic function's closure.
			// For float64 it is exactly the op chain α·(ℓⱼ − ℓᵢ).
			acc += T(alpha * float64(cur[j]-li))
		}
		next[i] = acc
	}
}

// FixedPoint reports whether a full round would move no load: every
// edge's transfer T(α·(ℓⱼ − ℓᵢ)), as Step computes it, is zero. For
// tokens this detects the discrete scheme's termination exactly; float64
// loads are fixed only once balanced.
func (f *FirstOrder[T]) FixedPoint() bool {
	for _, e := range f.G.Edges() {
		if T(f.Alpha*float64(f.cur[e.V]-f.cur[e.U])) != 0 {
			return false
		}
	}
	return true
}

// Potential returns Φ of the current distribution.
func (f *FirstOrder[T]) Potential() float64 { return load.Potential(f.cur) }

// Values returns the live loads or tokens (the core injection hook).
func (f *FirstOrder[T]) Values() []T { return f.cur }

// SecondOrder is the second-order scheme of [15]:
//
//	L¹ = M·L⁰,   Lᵗ = β·M·Lᵗ⁻¹ + (1−β)·Lᵗ⁻², t ≥ 2,
//
// which over-relaxes the first-order scheme and converges like the Chebyshev
// acceleration of M. OptimalBeta computes the β that [15] show is optimal,
// β = 2/(1 + sqrt(1 − γ²)).
type SecondOrder struct {
	G       *graph.G
	Beta    float64
	Alpha   float64
	Workers int

	cur   []float64 // Lᵗ
	prev  []float64 // Lᵗ⁻¹
	round int
	next  []float64
	// The round bodies, built once (see Step): first is the plain
	// first-order round 0, body every later round.
	first, body func(i int)
}

// NewSecondOrder creates the scheme with the given β and α = 1/(δ+1).
func NewSecondOrder(g *graph.G, initial []float64, beta float64) *SecondOrder {
	if len(initial) != g.N() {
		panic("diffusion: initial load length mismatch")
	}
	return &SecondOrder{
		G:     g,
		Beta:  beta,
		Alpha: 1 / float64(g.MaxDegree()+1),
		cur:   slices.Clone(initial),
	}
}

// OptimalBeta returns β* = 2/(1 + sqrt(1 − γ²)) for a diffusion matrix with
// second-largest eigenvalue magnitude γ.
func OptimalBeta(gamma float64) float64 {
	if gamma >= 1 {
		return 2
	}
	return 2 / (1 + math.Sqrt(1-gamma*gamma))
}

// Step advances one round. The very first round is a plain first-order
// step (there is no Lᵗ⁻² yet). The round bodies are built on the first
// call, so Alpha and Beta are fixed from then on.
func (s *SecondOrder) Step() {
	cur := s.cur
	n := s.G.N()
	if s.body == nil {
		s.next = make([]float64, n)
		s.prev = make([]float64, n)
		s.first = firstOrderBody(s.G, cur, s.next, s.Alpha)
		off, tgt := s.G.CSR()
		next, prev := s.next, s.prev
		alpha, beta := s.Alpha, s.Beta
		s.body = func(i int) {
			li := cur[i]
			ml := li
			for _, j := range tgt[off[i]:off[i+1]] {
				ml += alpha * (cur[j] - li)
			}
			next[i] = beta*ml + (1-beta)*prev[i]
		}
	}
	body := s.body
	if s.round == 0 {
		body = s.first
	}
	parallel.For(n, parallel.StepperWorkers(s.Workers), body)
	copy(s.prev, cur)
	copy(cur, s.next)
	s.round++
}

// Potential returns Φ of the current distribution.
//
// Note: the second-order scheme is not monotone in Φ (individual loads can
// overshoot), which is exactly the behaviour the E12 comparison experiment
// shows; only the envelope decays at the accelerated rate.
func (s *SecondOrder) Potential() float64 { return load.Potential(s.cur) }

// Values returns the live load vector (the core injection hook).
// Injecting into it perturbs Lᵗ only; the scheme's Lᵗ⁻¹ memory is left to
// absorb the shock over the next rounds.
func (s *SecondOrder) Values() []float64 { return s.cur }

// MatrixStepper advances L ← M·L for an arbitrary diffusion matrix; it is
// the dense-reference implementation used in tests to validate the sparse
// steppers, and the substrate for the idealized-chain comparisons.
type MatrixStepper struct {
	M *matrix.Dense

	cur, next matrix.Vector
}

// NewMatrixStepper wraps a diffusion matrix and initial loads.
func NewMatrixStepper(m *matrix.Dense, initial []float64) *MatrixStepper {
	if m.Rows() != len(initial) {
		panic("diffusion: matrix/load dimension mismatch")
	}
	return &MatrixStepper{M: m, cur: slices.Clone(initial)}
}

// Step advances one round.
func (ms *MatrixStepper) Step() {
	if ms.next == nil {
		ms.next = make(matrix.Vector, len(ms.cur))
	}
	ms.M.MulVecTo(ms.next, ms.cur)
	copy(ms.cur, ms.next)
}

// Potential returns Φ of the current distribution.
func (ms *MatrixStepper) Potential() float64 { return load.Potential(ms.cur) }

// Values returns the live load vector.
func (ms *MatrixStepper) Values() []float64 { return ms.cur }
