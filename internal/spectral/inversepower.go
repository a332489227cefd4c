package spectral

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// Lambda2InversePower computes λ₂ of the Laplacian of g by inverse power
// iteration restricted to the orthogonal complement of the all-ones kernel:
// repeatedly solve L·x = v (a consistent singular system, solved by
// conjugate gradients in the 1⊥ subspace) and read λ₂ off the Rayleigh
// quotient. Convergence of the eigenvalue is geometric with ratio
// (λ₂/λ')², λ' the smallest eigenvalue strictly above λ₂ — independent of
// n, which is what makes this the method of choice for large graphs with
// tiny spectral gaps (cycles, paths, barbells) where plain Lanczos on the
// shifted operator stalls.
func Lambda2InversePower(g *graph.G) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("spectral: λ₂ undefined for n=%d", n)
	}
	if !g.IsConnected() {
		return 0, fmt.Errorf("spectral: graph %s is disconnected (λ₂ = 0)", g.Name())
	}

	ones := make(matrix.Vector, n).Fill(1)
	v := make(matrix.Vector, n)
	s := uint64(6364136223846793005 + 1442695040888963407)
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>11))/float64(1<<52) - 0.5
	}
	v.ProjectOut(ones)
	if v.Normalize() == 0 {
		return 0, fmt.Errorf("spectral: degenerate start vector")
	}

	lap := LaplacianOperator(g)
	lx := make(matrix.Vector, n)
	const maxOuter = 200
	prev := 0.0
	for outer := 0; outer < maxOuter; outer++ {
		x, err := cgSolveLaplacian(g, lap, v, ones)
		if err != nil {
			return 0, err
		}
		x.ProjectOut(ones)
		if x.Normalize() == 0 {
			return 0, fmt.Errorf("spectral: inverse iteration collapsed")
		}
		lap(lx, x)
		rq := x.Dot(lx)
		if outer > 2 && math.Abs(rq-prev) <= 1e-11*(1+rq) {
			return rq, nil
		}
		prev = rq
		copy(v, x)
	}
	return prev, nil
}

// SolveLaplacian solves the consistent singular system L·x = b for the
// Laplacian of a connected graph g, returning the solution orthogonal to
// the all-ones kernel. b is projected onto 1⊥ first (the system is only
// solvable there). Besides the eigensolvers, this is the computational
// heart of the optimal-balancing-flow comparison (internal/flow): the
// ℓ₂-minimal flow with divergence d is the gradient of the solution of
// L·x = d.
func SolveLaplacian(g *graph.G, b matrix.Vector) (matrix.Vector, error) {
	if len(b) != g.N() {
		return nil, fmt.Errorf("spectral: SolveLaplacian length %d for n=%d", len(b), g.N())
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("spectral: SolveLaplacian requires a connected graph")
	}
	ones := make(matrix.Vector, g.N()).Fill(1)
	rhs := b.Clone()
	rhs.ProjectOut(ones)
	x, err := cgSolveLaplacian(g, LaplacianOperator(g), rhs, ones)
	if err != nil {
		return nil, err
	}
	x.ProjectOut(ones)
	return x, nil
}

// cgSolveLaplacian solves L·x = b by conjugate gradients, where lap is
// g's LaplacianOperator and b must be orthogonal to the all-ones kernel
// (the system is then consistent). Iterates are re-projected onto 1⊥
// periodically to suppress kernel drift from rounding.
func cgSolveLaplacian(g *graph.G, lap Operator, b, ones matrix.Vector) (matrix.Vector, error) {
	n := g.N()
	x := make(matrix.Vector, n)
	r := b.Clone()
	r.ProjectOut(ones)
	p := r.Clone()
	ap := make(matrix.Vector, n)
	rr := r.Dot(r)
	bNorm := b.Norm2()
	if bNorm == 0 {
		return x, nil
	}
	tol := 1e-13 * bNorm
	maxIter := 40 * n // generous: CG needs ~√κ·ln(1/tol) iterations
	if maxIter < 1000 {
		maxIter = 1000
	}
	for iter := 0; iter < maxIter; iter++ {
		if rr == 0 || r.Norm2() <= tol {
			return x, nil
		}
		lap(ap, p)
		pap := p.Dot(ap)
		if pap <= 0 {
			// p has drifted into the kernel; re-project and restart descent.
			p = r.Clone()
			p.ProjectOut(ones)
			continue
		}
		alpha := rr / pap
		x.AddScaled(alpha, p)
		r.AddScaled(-alpha, ap)
		if iter%50 == 49 {
			r.ProjectOut(ones)
			x.ProjectOut(ones)
		}
		rrNew := r.Dot(r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	if r.Norm2() <= 1e-8*bNorm {
		return x, nil // loose but usable; eigenvalue readout tolerates it
	}
	return nil, fmt.Errorf("spectral: CG did not converge on %s (residual %.3g)", g.Name(), r.Norm2()/bNorm)
}
