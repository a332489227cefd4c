package graph

import (
	"math"
)

// Closed-form Laplacian spectra for the standard topology families. These
// serve two purposes: they are the ground truth against which the numeric
// eigensolvers in internal/spectral are tested, and they let the experiment
// harness evaluate the paper's bounds exactly on large instances without an
// O(n³) eigendecomposition.

// PathLambda2 returns λ₂ of the path on n nodes: 2(1 − cos(π/n)).
// Laplacian eigenvalues of the path are 2(1 − cos(kπ/n)), k = 0..n−1.
func PathLambda2(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * (1 - math.Cos(math.Pi/float64(n)))
}

// CycleLambda2 returns λ₂ of the cycle on n nodes: 2(1 − cos(2π/n)).
// Laplacian eigenvalues of the cycle are 2(1 − cos(2kπ/n)), k = 0..n−1.
func CycleLambda2(n int) float64 {
	if n < 3 {
		return 0
	}
	return 2 * (1 - math.Cos(2*math.Pi/float64(n)))
}

// CompleteLambda2 returns λ₂ of K_n, which is n (with multiplicity n−1).
func CompleteLambda2(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n)
}

// StarLambda2 returns λ₂ of the star K_{1,n−1}, which is 1 for n ≥ 3
// (spectrum {0, 1^(n−2), n}).
func StarLambda2(n int) float64 {
	switch {
	case n < 2:
		return 0
	case n == 2:
		return 2
	default:
		return 1
	}
}

// HypercubeLambda2 returns λ₂ of the d-dimensional hypercube, which is 2
// (Laplacian spectrum {2k·(d choose k multiplicity)}, k = 0..d).
func HypercubeLambda2(d int) float64 {
	if d < 1 {
		return 0
	}
	return 2
}

// TorusLambda2 returns λ₂ of the rows×cols torus. The torus is the
// Cartesian product of two cycles, so its Laplacian spectrum is the sumset
// of the two cycle spectra; the smallest nonzero value is
// 2(1 − cos(2π/max(rows, cols))).
func TorusLambda2(rows, cols int) float64 {
	m := rows
	if cols > m {
		m = cols
	}
	return CycleLambda2(m)
}

// GridLambda2 returns λ₂ of the rows×cols mesh (Cartesian product of two
// paths): 2(1 − cos(π/max(rows, cols))).
func GridLambda2(rows, cols int) float64 {
	m := rows
	if cols > m {
		m = cols
	}
	return PathLambda2(m)
}

// CompleteBipartiteLambda2 returns λ₂ of K_{a,b} with a ≤ b, which is
// min(a, b) (spectrum {0, a^(b−1), b^(a−1), a+b}), except for the single
// edge K_{1,1}, whose spectrum is {0, 2}.
func CompleteBipartiteLambda2(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	switch {
	case a < 1:
		return 0
	case b == 1:
		return 2
	}
	return float64(a)
}

// PetersenLambda2 returns λ₂ of the Petersen graph: 2.
func PetersenLambda2() float64 { return 2 }

// PathSpectrum returns all n Laplacian eigenvalues of the path, ascending.
// Test-only: TestSpectrumLengthsAndOrder, TestEigenSymMatchesPathSpectrum.
func PathSpectrum(n int) []float64 {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		out[k] = 2 * (1 - math.Cos(float64(k)*math.Pi/float64(n)))
	}
	return out
}

// CycleSpectrum returns all n Laplacian eigenvalues of the cycle, ascending.
// Test-only: TestSpectrumLengthsAndOrder, TestEigenSymMatchesCycleSpectrum.
func CycleSpectrum(n int) []float64 {
	vals := make([]float64, n)
	for k := 0; k < n; k++ {
		vals[k] = 2 * (1 - math.Cos(2*math.Pi*float64(k)/float64(n)))
	}
	// Values come out unsorted (cos is not monotone over the index range).
	sortFloat64s(vals)
	return vals
}

// HypercubeSpectrum returns all 2^d Laplacian eigenvalues of the hypercube,
// ascending: eigenvalue 2k with multiplicity C(d, k).
// Test-only: TestSpectrumLengthsAndOrder, TestEigenSymMatchesHypercubeSpectrum.
func HypercubeSpectrum(d int) []float64 {
	n := 1 << uint(d)
	out := make([]float64, 0, n)
	choose := 1
	for k := 0; k <= d; k++ {
		for c := 0; c < choose; c++ {
			out = append(out, float64(2*k))
		}
		choose = choose * (d - k) / (k + 1)
	}
	return out
}

// PathLambdaMax returns the largest Laplacian eigenvalue of the path:
// 2(1 + cos(π/n)), the k = n−1 entry of the path spectrum.
func PathLambdaMax(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * (1 + math.Cos(math.Pi/float64(n)))
}

// CycleLambdaMax returns the largest Laplacian eigenvalue of the cycle: 4
// for even n (the alternating eigenvector), 2(1 + cos(π/n)) for odd n.
func CycleLambdaMax(n int) float64 {
	if n < 3 {
		return 0
	}
	if n%2 == 0 {
		return 4
	}
	return 2 * (1 + math.Cos(math.Pi/float64(n)))
}

// CompleteLambdaMax returns the largest Laplacian eigenvalue of K_n: n.
func CompleteLambdaMax(n int) float64 { return CompleteLambda2(n) }

// StarLambdaMax returns the largest Laplacian eigenvalue of K_{1,n−1}: n
// (spectrum {0, 1^(n−2), n}).
func StarLambdaMax(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n)
}

// HypercubeLambdaMax returns the largest Laplacian eigenvalue of the
// d-dimensional hypercube: 2d.
func HypercubeLambdaMax(d int) float64 {
	if d < 1 {
		return 0
	}
	return float64(2 * d)
}

// TorusLambdaMax returns the largest Laplacian eigenvalue of the rows×cols
// torus: the Cartesian-product sumset peaks at the sum of the two cycle
// maxima.
func TorusLambdaMax(rows, cols int) float64 {
	return CycleLambdaMax(rows) + CycleLambdaMax(cols)
}

// GridLambdaMax returns the largest Laplacian eigenvalue of the rows×cols
// mesh: the sum of the two path maxima.
func GridLambdaMax(rows, cols int) float64 {
	return PathLambdaMax(rows) + PathLambdaMax(cols)
}

// CompleteBipartiteLambdaMax returns the largest Laplacian eigenvalue of
// K_{a,b}: a+b.
func CompleteBipartiteLambdaMax(a, b int) float64 {
	if a < 1 || b < 1 {
		return 0
	}
	return float64(a + b)
}

// PetersenLambdaMax returns the largest Laplacian eigenvalue of the Petersen
// graph: 5 (spectrum {0, 2⁵, 5⁴}).
func PetersenLambdaMax() float64 { return 5 }

// ClosedForm is a topology family's analytic Laplacian data, recorded on
// the graph by the family's constructor (Path, Cycle, Complete, Star,
// CompleteBipartite, Grid, Torus, Hypercube, Petersen). With λ₂ and λ_max
// known, γ of any diffusion matrix of the exact form M = I − c·L is
// max(|1 − cλ₂|, |1 − cλ_max|), so the spectral layer needs no
// decomposition.
type ClosedForm struct {
	Lambda2, LambdaMax float64
}

// ClosedForm returns the closed form the graph's family constructor
// recorded. Graphs from NewBuilder or Subgraph carry none, whatever their
// name says.
func (g *G) ClosedForm() (ClosedForm, bool) {
	if g.closed == nil {
		return ClosedForm{}, false
	}
	return *g.closed, true
}

// withClosedForm records λ₂ and λ_max on a nonempty g.
func (g *G) withClosedForm(lambda2, lambdaMax float64) *G {
	if g.N() > 0 {
		g.closed = &ClosedForm{Lambda2: lambda2, LambdaMax: lambdaMax}
	}
	return g
}

func sortFloat64s(v []float64) {
	// insertion sort is fine here; spectra helpers are not hot paths and the
	// stdlib sort would pull in an interface allocation per call site.
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}
