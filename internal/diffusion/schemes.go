package diffusion

import (
	"math"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// FirstOrder is Cybenko's continuous first-order scheme Lᵗ⁺¹ = M·Lᵗ with
// the uniform diffusion factor α = 1/(δ+1) [3]. It is applied sparsely:
//
//	ℓᵢ′ = ℓᵢ + α·Σ_{j∼i}(ℓⱼ − ℓᵢ).
type FirstOrder struct {
	G       *graph.G
	Load    *load.Continuous
	Alpha   float64
	Workers int

	next matrix.Vector
	body func(i int) // the round body, built once (see Step)
}

// NewFirstOrder creates the scheme with α = 1/(δ+1).
func NewFirstOrder(g *graph.G, initial []float64) *FirstOrder {
	if len(initial) != g.N() {
		panic("diffusion: initial load length mismatch")
	}
	return &FirstOrder{
		G:     g,
		Load:  load.NewContinuous(initial),
		Alpha: 1 / float64(g.MaxDegree()+1),
	}
}

// Step advances one round. Like Stepper.Step, the round body is built
// on the first call, so Alpha is fixed from then on.
func (f *FirstOrder) Step() {
	cur := f.Load.Vector()
	n := f.G.N()
	if f.body == nil {
		f.next = make(matrix.Vector, n)
		f.body = firstOrderBody(f.G, cur, f.next, f.Alpha)
	}
	parallel.For(n, parallel.StepperWorkers(f.Workers), f.body)
	copy(cur, f.next)
}

// firstOrderBody returns the round body next[i] = ℓᵢ + α·Σ_{j∼i}(ℓⱼ − ℓᵢ)
// over the round-start vector cur. Callers build it once per stepper: the
// graph and both vectors are fixed for the stepper's lifetime, and a
// per-Step closure would be one heap allocation per round.
func firstOrderBody(g *graph.G, cur, next matrix.Vector, alpha float64) func(i int) {
	off, tgt := g.CSR()
	return func(i int) {
		li := cur[i]
		acc := li
		for _, j := range tgt[off[i]:off[i+1]] {
			acc += alpha * (cur[j] - li)
		}
		next[i] = acc
	}
}

// Potential returns Φ of the current distribution.
func (f *FirstOrder) Potential() float64 { return f.Load.Potential() }

// Values returns the live load vector (the core injection hook).
func (f *FirstOrder) Values() []float64 { return f.Load.Vector() }

// SecondOrder is the second-order scheme of [15]:
//
//	L¹ = M·L⁰,   Lᵗ = β·M·Lᵗ⁻¹ + (1−β)·Lᵗ⁻², t ≥ 2,
//
// which over-relaxes the first-order scheme and converges like the Chebyshev
// acceleration of M. OptimalBeta computes the β that [15] show is optimal,
// β = 2/(1 + sqrt(1 − γ²)).
type SecondOrder struct {
	G       *graph.G
	Load    *load.Continuous // current Lᵗ
	Beta    float64
	Alpha   float64
	Workers int

	prev  matrix.Vector // Lᵗ⁻¹
	round int
	next  matrix.Vector
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
		Load:  load.NewContinuous(initial),
		Beta:  beta,
		Alpha: 1 / float64(g.MaxDegree()+1),
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
	cur := s.Load.Vector()
	n := s.G.N()
	if s.body == nil {
		s.next = make(matrix.Vector, n)
		s.prev = make(matrix.Vector, n)
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
func (s *SecondOrder) Potential() float64 { return s.Load.Potential() }

// Values returns the live load vector (the core injection hook).
// Injecting into it perturbs Lᵗ only; the scheme's Lᵗ⁻¹ memory is left to
// absorb the shock over the next rounds.
func (s *SecondOrder) Values() []float64 { return s.Load.Vector() }

// MatrixStepper advances L ← M·L for an arbitrary diffusion matrix; it is
// the dense-reference implementation used in tests to validate the sparse
// steppers, and the substrate for the idealized-chain comparisons.
type MatrixStepper struct {
	M    *matrix.Dense
	Load *load.Continuous

	next matrix.Vector
}

// NewMatrixStepper wraps a diffusion matrix and initial loads.
func NewMatrixStepper(m *matrix.Dense, initial []float64) *MatrixStepper {
	if m.Rows() != len(initial) {
		panic("diffusion: matrix/load dimension mismatch")
	}
	return &MatrixStepper{M: m, Load: load.NewContinuous(initial)}
}

// Step advances one round.
func (ms *MatrixStepper) Step() {
	cur := ms.Load.Vector()
	if ms.next == nil {
		ms.next = make(matrix.Vector, len(cur))
	}
	ms.M.MulVecTo(ms.next, cur)
	copy(cur, ms.next)
}

// Potential returns Φ of the current distribution.
func (ms *MatrixStepper) Potential() float64 { return ms.Load.Potential() }
