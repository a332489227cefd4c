package spectral

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// Solve-path accounting. Every Laplacian record and every non-uniform γ_P
// records which solver actually ran, so callers (speccache stats, the
// large-n smoke gate in CI) can assert that the dense O(n³) pipeline is never invoked on
// million-node graphs.

// SolveCounts is a snapshot of how many spectral solves each path served
// since process start.
type SolveCounts struct {
	ClosedForm   uint64 // the constructor-recorded graph.ClosedForm
	Dense        uint64 // Householder + implicit QL on the materialized matrix
	Lanczos      uint64 // implicit CSR Lanczos, residual gate met
	InversePower uint64 // CG-based inverse power (Lanczos fallback)
}

var (
	solveClosedForm   atomic.Uint64
	solveDense        atomic.Uint64
	solveLanczos      atomic.Uint64
	solveInversePower atomic.Uint64
)

// SolveStats returns the current solve-path counters.
func SolveStats() SolveCounts {
	return SolveCounts{
		ClosedForm:   solveClosedForm.Load(),
		Dense:        solveDense.Load(),
		Lanczos:      solveLanczos.Load(),
		InversePower: solveInversePower.Load(),
	}
}

// The paths a Laplacian record names: which solve produced its λ₂.
const (
	PathClosedForm   = "closed form"          // the constructor-recorded graph.ClosedForm
	PathDense        = "dense Householder+QL" // n ≤ denseCutoff
	PathLanczos      = "implicit Lanczos"     // residual gate met
	PathInversePower = "inverse-power CG"     // Lanczos did not converge
	PathDisconnected = "disconnected"         // λ₂ = 0 without a solve
)

// Laplacian is one solve's record of the extreme nonzero-spectrum
// eigenvalues of a graph's Laplacian. Every spectral quantity the system
// uses except the non-uniform γ_P is a function of it: the paper's bounds
// take λ₂, and γ of any diffusion matrix M = I − c·L is r.Gamma(c).
type Laplacian struct {
	Lambda2, LambdaMax float64
	Path               string // which solve produced λ₂: one of the Path constants
}

// LaplacianExtremes returns λ₂ and λ_max of g from one solve, cheapest
// first: the closed form a family constructor recorded on g
// (graph.ClosedForm), one dense Householder+QL decomposition of L for
// n ≤ denseCutoff, one implicit Lanczos run above it, and, when the
// Lanczos residual gate does not converge (tiny-gap families), CG inverse
// power for λ₂ with the Lanczos Ritz value kept as λ_max (the top of the
// spectrum converges fast, from below). A disconnected graph has λ₂ = 0
// exactly, whatever the solve returns at the bottom; its λ_max still comes
// from the solve. The counter of the solver that ran is bumped once.
func LaplacianExtremes(g *graph.G) (Laplacian, error) {
	n := g.N()
	if n < 2 {
		return Laplacian{}, fmt.Errorf("spectral: λ₂ undefined for n=%d", n)
	}
	if cf, ok := g.ClosedForm(); ok {
		solveClosedForm.Add(1)
		return Laplacian{cf.Lambda2, cf.LambdaMax, PathClosedForm}, nil
	}
	var r Laplacian
	connected := g.IsConnected()
	if n <= denseCutoff {
		solveDense.Add(1)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			return r, err
		}
		r = Laplacian{vals[1], vals[n-1], PathDense}
	} else {
		l2, lmax, ok, err := LaplacianExtremal(g)
		if err != nil {
			return r, err
		}
		r = Laplacian{l2, lmax, PathLanczos}
		if ok || !connected {
			solveLanczos.Add(1)
		} else {
			solveInversePower.Add(1)
			if r.Lambda2, err = Lambda2InversePower(g); err != nil {
				return r, err
			}
			r.Path = PathInversePower
		}
	}
	if !connected {
		r.Lambda2, r.Path = 0, PathDisconnected
	}
	return r, nil
}

// Gamma returns γ, the second-largest eigenvalue magnitude, of the
// diffusion matrix M = I − c·L: in the complement of the stationary
// all-ones vector the eigenvalues of M are 1 − c·λ for λ over the nonzero
// Laplacian spectrum, so γ = max(|1 − c·λ₂|, |1 − c·λ_max|).
func (r Laplacian) Gamma(c float64) float64 {
	g := math.Abs(1 - c*r.Lambda2)
	if a := math.Abs(1 - c*r.LambdaMax); a > g {
		g = a
	}
	return g
}

// GammaOf returns γ of Cybenko's uniform diffusion matrix
// M = I − L/(δ+1) for g, derived from its Laplacian record.
func GammaOf(g *graph.G) (float64, error) {
	r, err := LaplacianExtremes(g)
	if err != nil {
		return 0, err
	}
	return r.Gamma(DiffusionAlpha(g)), nil
}

// PaperEdgeScale returns c when the paper's edge weight 1/(4·max(dᵢ,dⱼ))
// is the same on every edge of g, so that its diffusion matrix is exactly
// M_P = I − c·L: then every edge touches a node of maximum degree δ and
// c = 1/(4δ). That holds on every regular graph, and on paths, stars,
// K(a,b) and complete binary trees. It returns 0 when the weights mix (the
// mesh, de Bruijn graphs, barbells) and for edgeless graphs.
func PaperEdgeScale(g *graph.G) float64 {
	delta := g.MaxDegree()
	if delta == 0 {
		return 0
	}
	off, tgt := g.CSR()
	for i := 0; i+1 < len(off); i++ {
		if off[i+1]-off[i] == delta {
			continue
		}
		for _, j := range tgt[off[i]:off[i+1]] {
			if off[j+1]-off[j] != delta {
				return 0
			}
		}
	}
	return 1 / (4 * float64(delta))
}

// PaperGammaOf returns γ_P, the second-largest eigenvalue magnitude of the
// paper's diffusion matrix (transfer rule 1/(4·max(dᵢ,dⱼ))). With a
// uniform edge weight c (PaperEdgeScale) it is derived from the Laplacian
// record; otherwise it takes a solve of its own: dense below the cutoff,
// implicit Lanczos above it. On non-convergence the best Ritz estimate is
// returned: γ_P only feeds reporting bounds.
func PaperGammaOf(g *graph.G) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("spectral: γ_P undefined for n=%d", n)
	}
	if c := PaperEdgeScale(g); c != 0 {
		r, err := LaplacianExtremes(g)
		if err != nil {
			return 0, err
		}
		return r.Gamma(c), nil
	}
	if n <= denseCutoff {
		solveDense.Add(1)
		return Gamma(PaperDiffusionMatrix(g))
	}
	gm, err := GammaLanczos(g, PaperDiffusionOperator(g))
	if err != nil {
		return 0, err
	}
	solveLanczos.Add(1)
	return gm, nil
}
