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
// (its algebraic connectivity). Routing, cheapest first: the closed form a
// family constructor recorded on g (graph.ClosedForm), the
// dense Householder+QL solver below the cutoff, implicit CSR Lanczos above
// it, and the CG-based inverse-power path when the Lanczos residual gate
// does not converge (tiny-gap families). The graph must have at least 2
// nodes and be connected (otherwise λ₂ = 0 and the convergence bounds of
// the paper are vacuous).
func Lambda2(g *graph.G) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("spectral: λ₂ undefined for n=%d", n)
	}
	if !g.IsConnected() {
		return 0, nil
	}
	if cf, ok := g.ClosedForm(); ok {
		solveClosedForm.Add(1)
		return cf.Lambda2, nil
	}
	if n <= denseCutoff {
		solveDense.Add(1)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			return 0, err
		}
		return vals[1], nil
	}
	if l2, _, ok, err := LaplacianExtremal(g, 1); err == nil && ok {
		solveLanczos.Add(1)
		return l2, nil
	}
	solveInversePower.Add(1)
	return Lambda2InversePower(g, 1)
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
	alpha := 1 / float64(g.MaxDegree()+1)
	return WeightedDiffusionMatrix(g, func(i, j int) float64 { return alpha })
}

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
		for _, j := range g.Neighbors(i) {
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
	Gamma       float64 // 2nd-largest |eigenvalue| of the uniform diffusion matrix (NaN for n < 2)
	ExpansionLo float64 // Cheeger lower bound λ₂/2
	ExpansionHi float64 // Cheeger upper bound sqrt(2δλ₂)
	Exact       bool    // λ₂ from a closed form or dense solve (true) or an iterative path (false)
	Method      string  // which dispatch path produced λ₂ (see SolveStats)
}

// Analyze computes a Report for g. All quantities are filled at every size
// now that λ_max and γ route through the closed-form and implicit-Lanczos
// paths; Exact records whether λ₂ came from an exact solver and Method
// names the dispatch path that actually ran.
func Analyze(g *graph.G) (Report, error) {
	r := Report{Name: g.Name(), N: g.N(), M: g.M(), Delta: g.MaxDegree()}
	before := SolveStats()
	l2, err := Lambda2(g)
	if err != nil {
		return r, err
	}
	switch after := SolveStats(); {
	case after.ClosedForm > before.ClosedForm:
		r.Method = "closed form"
	case after.Dense > before.Dense:
		r.Method = "dense Householder+QL"
	case after.Lanczos > before.Lanczos:
		r.Method = "implicit Lanczos"
	case after.InversePower > before.InversePower:
		r.Method = "inverse-power CG"
	default:
		r.Method = "cached"
	}
	r.Lambda2 = l2
	r.ExpansionLo, r.ExpansionHi = graph.ExpansionBounds(g, l2)
	_, r.Exact = g.ClosedForm()
	r.Exact = r.Exact || g.N() <= denseCutoff
	r.LambdaMax, r.Gamma = math.NaN(), math.NaN()
	lm, err := LambdaMaxOf(g)
	if err != nil {
		return r, err
	}
	r.LambdaMax = lm
	if g.N() >= 2 {
		gm, err := GammaOf(g)
		if err != nil {
			return r, err
		}
		r.Gamma = gm
	}
	return r, nil
}
