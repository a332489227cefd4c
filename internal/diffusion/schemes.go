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

// Step advances one round.
func (f *FirstOrder) Step() {
	g, cur := f.G, f.Load.Vector()
	n := g.N()
	if f.next == nil {
		f.next = make(matrix.Vector, n)
	}
	alpha := f.Alpha
	off, tgt := g.CSR()
	parallel.For(n, parallel.StepperWorkers(f.Workers), func(i int) {
		li := cur[i]
		acc := li
		for _, j := range tgt[off[i]:off[i+1]] {
			acc += alpha * (cur[j] - li)
		}
		f.next[i] = acc
	})
	copy(cur, f.next)
}

// Potential returns Φ of the current distribution.
func (f *FirstOrder) Potential() float64 { return f.Load.Potential() }

// LoadVector returns the live load vector (implements core.ContinuousState).
func (f *FirstOrder) LoadVector() []float64 { return f.Load.Vector() }

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
// step (there is no Lᵗ⁻² yet).
func (s *SecondOrder) Step() {
	g, cur := s.G, s.Load.Vector()
	n := g.N()
	if s.next == nil {
		s.next = make(matrix.Vector, n)
	}
	alpha, beta := s.Alpha, s.Beta
	workers := parallel.StepperWorkers(s.Workers)
	off, tgt := g.CSR()
	if s.round == 0 {
		s.prev = cur.Clone()
		parallel.For(n, workers, func(i int) {
			li := cur[i]
			acc := li
			for _, j := range tgt[off[i]:off[i+1]] {
				acc += alpha * (cur[j] - li)
			}
			s.next[i] = acc
		})
	} else {
		parallel.For(n, workers, func(i int) {
			li := cur[i]
			ml := li
			for _, j := range tgt[off[i]:off[i+1]] {
				ml += alpha * (cur[j] - li)
			}
			s.next[i] = beta*ml + (1-beta)*s.prev[i]
		})
	}
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

// LoadVector returns the live load vector (implements core.ContinuousState).
// Injecting into it perturbs Lᵗ only; the scheme's Lᵗ⁻¹ memory is left to
// absorb the shock over the next rounds.
func (s *SecondOrder) LoadVector() []float64 { return s.Load.Vector() }

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
