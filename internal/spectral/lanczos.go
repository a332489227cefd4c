package spectral

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// Implicit Lanczos: extremal eigenvalues of a symmetric operator that is
// never materialized. The operator is a CSR matvec over the graph — O(m)
// per application and O(n) memory per basis vector — which is what lets the
// spectral quantities behind the paper's bounds (λ₂, λ_max, γ, γ_P) scale
// to million-node graphs where the dense O(n²)-memory, O(n³)-time pipeline
// cannot even allocate its input.
//
// The solver runs Lanczos with full reorthogonalization (the basis is kept
// numerically orthogonal, so no ghost eigenvalues) on the operator
// restricted to the complement of the constant vector — the Laplacian
// kernel, and the stationary eigenvector of every diffusion matrix — which
// is deflated out of the start vector and re-projected out of every new
// Krylov vector. Convergence is residual-gated: for a Ritz pair (θ, V·s)
// of the tridiagonal projection, ‖A·y − θ·y‖ = |β_k·s_k|, so the loop
// monitors that quantity for both extremal Ritz values and stops when both
// fall under tol·scale, rather than running a fixed step count.

// Operator applies a symmetric linear map: dst ← A·x. Implementations must
// not retain dst or x.
type Operator func(dst, x matrix.Vector)

// LaplacianOperator returns the implicit Laplacian of g as a CSR matvec:
// (Lx)ᵢ = deg(i)·xᵢ − Σ_{j∼i} xⱼ.
func LaplacianOperator(g *graph.G) Operator {
	off, tgt := g.CSR()
	return func(dst, x matrix.Vector) {
		for i := range dst {
			row := tgt[off[i]:off[i+1]]
			s := float64(len(row)) * x[i]
			for _, j := range row {
				s -= x[j]
			}
			dst[i] = s
		}
	}
}

// PaperDiffusionOperator returns the paper's diffusion matrix — transfer
// rule m_ij = 1/(4·max(dᵢ,dⱼ)) — as an implicit CSR matvec.
func PaperDiffusionOperator(g *graph.G) Operator {
	off, tgt := g.CSR()
	return func(dst, x matrix.Vector) {
		for i := range dst {
			xi := x[i]
			row := tgt[off[i]:off[i+1]]
			di := len(row)
			s := xi
			for _, j := range row {
				d := di
				if dj := off[j+1] - off[j]; dj > d {
					d = dj
				}
				s += (x[j] - xi) / (4 * float64(d))
			}
			dst[i] = s
		}
	}
}

// lanczosMaxSteps caps the Krylov dimension (and with it the memory bound:
// maxSteps basis vectors of n float64s). The million-node de Bruijn graph —
// the hardest case the large-n gate exercises, with its clustered lower
// spectrum — meets the residual gate around step 190; the cap leaves
// headroom over that. Graphs whose extremal spectrum has not converged by
// then — tiny-gap families like barbells — fall back to the CG-based
// inverse-power path, which runs in O(n) memory.
const lanczosMaxSteps = 256

// lanczosTol is the residual gate, relative to the operator's spectral
// radius estimate: both extremal Ritz pairs must reach
// ‖A·y − θ·y‖ ≤ lanczosTol·max(1, |θ|_max) before the loop stops early.
// For a converged Ritz pair the eigenvalue error is O(residual²/gap), so a
// 1e-8 residual already puts the eigenvalue near machine precision; a
// tighter gate would only buy Krylov steps that cost O(k·n) each in
// reorthogonalization.
const lanczosTol = 1e-8

// ExtremalEigs computes the smallest and largest eigenvalues of the
// symmetric operator op on ℝⁿ restricted to the orthogonal complement of
// the constant vector. It is the shared engine behind the large-graph
// Laplacian record and γ_P. ok reports whether the residual gate was met;
// when false, min and max carry the best available Ritz estimates and the
// caller decides whether to fall back.
func ExtremalEigs(n int, op Operator) (min, max float64, ok bool, err error) {
	steps := n - 1
	if steps > lanczosMaxSteps {
		steps = lanczosMaxSteps
	}
	if steps < 1 {
		return 0, 0, false, fmt.Errorf("spectral: deflated space is empty for n=%d", n)
	}
	deflate := make(matrix.Vector, n).Fill(1)

	// Deterministic pseudo-random start, deflated and normalized.
	v := make(matrix.Vector, n)
	s := uint64(2862933555777941757 + 3037000493)
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>11))/float64(1<<52) - 0.5
	}
	v.ProjectOut(deflate)
	if v.Normalize() == 0 {
		return 0, 0, false, fmt.Errorf("spectral: degenerate Lanczos start")
	}

	basis := make([]matrix.Vector, 0, steps)
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps)
	w := make(matrix.Vector, n)

	ritz := func() (float64, float64, float64, float64, error) {
		// Diagonalize the current tridiagonal projection and read off the
		// extremal Ritz values with their residual bounds |β_k·s_k| (s the
		// eigenvector of T, k its last row: the only row QL rotates).
		m := len(alpha)
		t := Tridiagonal{D: append([]float64(nil), alpha...), E: make([]float64, m)}
		for k := 0; k+1 < m; k++ {
			t.E[k+1] = beta[k]
		}
		z := make([]float64, m)
		z[m-1] = 1
		if err := QLImplicit(t, z); err != nil {
			return 0, 0, 0, 0, err
		}
		bLast := 0.0
		if len(beta) >= m && m > 0 {
			bLast = beta[m-1]
		}
		lo, hi := 0, 0
		for c := 1; c < m; c++ {
			if t.D[c] < t.D[lo] {
				lo = c
			}
			if t.D[c] > t.D[hi] {
				hi = c
			}
		}
		resLo := math.Abs(bLast * z[lo])
		resHi := math.Abs(bLast * z[hi])
		return t.D[lo], t.D[hi], resLo, resHi, nil
	}

	var lo, hi, resLo, resHi float64
	for k := 0; k < steps; k++ {
		basis = append(basis, v.Clone())
		op(w, v)
		a := w.Dot(v)
		alpha = append(alpha, a)
		w.AddScaled(-a, v)
		if k > 0 {
			w.AddScaled(-beta[k-1], basis[k-1])
		}
		// Full reorthogonalization against the deflated direction and the
		// whole basis keeps the Krylov space numerically orthogonal.
		w.ProjectOut(deflate)
		for _, b := range basis {
			w.AddScaled(-w.Dot(b), b)
		}
		bNorm := w.Norm2()
		if bNorm < 1e-13 {
			// Krylov space exhausted: the Ritz values are exact eigenvalues.
			var rerr error
			lo, hi, _, _, rerr = ritz()
			if rerr != nil {
				return 0, 0, false, rerr
			}
			return lo, hi, true, nil
		}
		beta = append(beta, bNorm)
		copy(v, w)
		v.Scale(1 / bNorm)

		// Residual gate: check convergence of both extremal Ritz pairs.
		// The tridiagonal solve is O(k²) — cheap next to the O(m) matvec
		// until k grows, so check every few steps past a warm-up.
		if k >= 8 && (k%4 == 3 || k == steps-1) {
			var rerr error
			lo, hi, resLo, resHi, rerr = ritz()
			if rerr != nil {
				return 0, 0, false, rerr
			}
			scale := math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
			if resLo <= lanczosTol*scale && resHi <= lanczosTol*scale {
				return lo, hi, true, nil
			}
		}
	}
	return lo, hi, false, nil
}

// LaplacianExtremal computes (λ₂, λ_max) of the Laplacian of g via implicit
// Lanczos in the complement of the all-ones kernel. ok reports whether the
// residual gate converged. On a disconnected g the kernel is larger than
// the all-ones vector, so λ₂ comes out ≈ 0 and rarely converges; λ_max is
// still the top Ritz value.
func LaplacianExtremal(g *graph.G) (lambda2, lambdaMax float64, ok bool, err error) {
	n := g.N()
	if n < 2 {
		return 0, 0, false, fmt.Errorf("spectral: λ₂ undefined for n=%d", n)
	}
	lo, hi, ok, err := ExtremalEigs(n, LaplacianOperator(g))
	if err != nil {
		return 0, 0, false, err
	}
	if lo < 0 && lo > -1e-9 {
		lo = 0
	}
	return lo, hi, ok, nil
}

// GammaLanczos computes γ — the second-largest eigenvalue magnitude — of an
// implicit diffusion matrix whose stationary eigenvector is the constant
// vector: Lanczos in the 1⊥ complement returns the extremal remaining
// eigenvalues (θ_min, θ_max), and γ = max(|θ_min|, |θ_max|). When the
// residual gate is not met, γ comes from the best Ritz estimates.
func GammaLanczos(g *graph.G, op Operator) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("spectral: γ undefined for n=%d", n)
	}
	lo, hi, _, err := ExtremalEigs(n, op)
	if err != nil {
		return 0, err
	}
	gamma := math.Abs(hi)
	if a := math.Abs(lo); a > gamma {
		gamma = a
	}
	return gamma, nil
}
