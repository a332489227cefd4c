package spectral

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// denseCutoff is the largest n for which Lambda2 uses the O(n³) dense
// pipeline; beyond it the Lanczos path is both faster and accurate enough.
const denseCutoff = 400

// Lambda2 returns λ₂, the second-smallest eigenvalue of the Laplacian of g
// (its algebraic connectivity), from g's Laplacian record (see
// LaplacianExtremes). The graph must have at least 2 nodes; a disconnected
// graph has λ₂ = 0, and the convergence bounds of the paper are vacuous.
func Lambda2(g *graph.G) (float64, error) {
	r, err := LaplacianExtremes(g)
	return r.Lambda2, err
}

// MustLambda2 is Lambda2 that panics on error; for use with graphs known to
// be valid by construction.
// Test-only: root, diffusion and speccache tests and Example_clustersim.
func MustLambda2(g *graph.G) float64 {
	v, err := Lambda2(g)
	if err != nil {
		panic(err)
	}
	return v
}

// LaplacianSpectrum returns all Laplacian eigenvalues of g, ascending.
// Dense-only; intended for test fixtures and small harness sweeps.
func LaplacianSpectrum(g *graph.G) ([]float64, error) {
	return EigenvaluesSym(g.Laplacian())
}

// DiffusionMatrix builds Cybenko's diffusion matrix M for g with the
// uniform diffusion factor α = 1/(δ+1):
//
//	m_ij = α for edges (i,j),   m_ii = 1 − α·deg(i).
//
// M is symmetric, doubly stochastic, and L∞-contractive; the continuous
// first-order scheme is exactly Lᵗ⁺¹ = M·Lᵗ.
func DiffusionMatrix(g *graph.G) *matrix.Dense {
	alpha := DiffusionAlpha(g)
	return WeightedDiffusionMatrix(g, func(i, j int) float64 { return alpha })
}

// DiffusionAlpha returns Cybenko's uniform diffusion factor α = 1/(δ+1).
func DiffusionAlpha(g *graph.G) float64 { return 1 / float64(g.MaxDegree()+1) }

// PaperDiffusionMatrix builds the diffusion matrix matching Algorithm 1's
// transfer rule: m_ij = 1/(4·max(dᵢ, dⱼ)). In the continuous case one round
// of Algorithm 1 applied to load vector L is exactly this matrix applied to
// L, since flows in both directions of an edge agree in magnitude.
func PaperDiffusionMatrix(g *graph.G) *matrix.Dense {
	return WeightedDiffusionMatrix(g, func(i, j int) float64 {
		di, dj := g.Degree(i), g.Degree(j)
		if dj > di {
			di = dj
		}
		return 1 / (4 * float64(di))
	})
}

// WeightedDiffusionMatrix builds M from a per-edge diffusion factor
// alpha(i, j), which must be symmetric in its arguments. Diagonal entries
// are set to 1 − Σ_j alpha(i, j).
func WeightedDiffusionMatrix(g *graph.G, alpha func(i, j int) float64) *matrix.Dense {
	n := g.N()
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		var off float64
		for _, v := range g.Neighbors(i) {
			j := int(v)
			a := alpha(i, j)
			m.Set(i, j, a)
			off += a
		}
		m.Set(i, i, 1-off)
	}
	return m
}

// Gamma returns γ = max_{µᵢ ≠ µₙ} |µᵢ|, the second-largest eigenvalue
// magnitude of the diffusion matrix m (whose largest eigenvalue is 1 with
// the all-ones eigenvector). The convergence rate of the first-order scheme
// is ‖e(t)‖₂ ≤ γᵗ‖e(0)‖₂.
func Gamma(m *matrix.Dense) (float64, error) {
	vals, err := EigenvaluesSym(m)
	if err != nil {
		return 0, err
	}
	n := len(vals)
	if n < 2 {
		return 0, fmt.Errorf("spectral: γ undefined for n=%d", n)
	}
	// vals ascending; largest is vals[n−1] ≈ 1. γ = max(|vals[0]|, vals[n−2]).
	g := vals[n-2]
	if a := math.Abs(vals[0]); a > g {
		g = a
	}
	return g, nil
}

// EigenGap returns µ = 1 − γ for the diffusion matrix m.
func EigenGap(m *matrix.Dense) (float64, error) {
	g, err := Gamma(m)
	if err != nil {
		return 0, err
	}
	return 1 - g, nil
}

// Report bundles the spectral quantities the experiment harness prints for
// a topology.
type Report struct {
	Name        string
	N, M, Delta int
	Lambda2     float64 // algebraic connectivity
	LambdaMax   float64 // largest Laplacian eigenvalue
	Gamma       float64 // 2nd-largest |eigenvalue| of the uniform diffusion matrix
	ExpansionLo float64 // Cheeger lower bound λ₂/2
	ExpansionHi float64 // Cheeger upper bound sqrt(2δλ₂)
	Method      string  // the Laplacian record's Path: which solve produced λ₂
}

// Analyze computes a Report for g (n ≥ 2) from one Laplacian record.
func Analyze(g *graph.G) (Report, error) {
	r := Report{Name: g.Name(), N: g.N(), M: g.M(), Delta: g.MaxDegree()}
	lap, err := LaplacianExtremes(g)
	if err != nil {
		return r, err
	}
	r.Lambda2, r.LambdaMax, r.Method = lap.Lambda2, lap.LambdaMax, lap.Path
	r.Gamma = lap.Gamma(DiffusionAlpha(g))
	r.ExpansionLo, r.ExpansionHi = graph.ExpansionBounds(g, lap.Lambda2)
	return r, nil
}
