package spectral

import (
	"errors"
	"math"
	"sort"

	"repro/internal/matrix"
)

// ErrNoConvergence is returned when an iterative eigenroutine exceeds its
// iteration budget. With symmetric input this indicates a bug or pathological
// rounding, not a property of the matrix.
var ErrNoConvergence = errors.New("spectral: eigenvalue iteration did not converge")

// maxQLIterationsPerEigenvalue bounds the implicit-shift QL sweeps per
// eigenvalue; 30 is the classical EISPACK budget and is never reached on
// well-formed symmetric input.
const maxQLIterationsPerEigenvalue = 30

// QLImplicit diagonalizes a symmetric tridiagonal matrix in place using the
// QL algorithm with implicit shifts. On return t.D holds the eigenvalues
// (unsorted). If z is non-nil it must hold one row of the identity, of
// length len(t.D); it is rotated into that row of the eigenvector matrix,
// so z[c] becomes the row's entry in the eigenvector of t.D[c]. Lanczos
// passes the last row, which is all its residual bounds read.
func QLImplicit(t Tridiagonal, z []float64) error {
	n := len(t.D)
	if n == 0 {
		return nil
	}
	d, e := t.D, t.E
	// Shift the subdiagonal up by one (tql2 convention) so e[l] couples
	// rows l and l+1 during the sweep.
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	// Overall matrix scale for the negligibility test: without it, a
	// subdiagonal sitting next to two (near-)zero diagonal entries — as in
	// highly degenerate spectra like K_n's diffusion matrix — never tests
	// as negligible and the sweep spins.
	var anorm float64
	for i := 0; i < n; i++ {
		if s := math.Abs(d[i]) + math.Abs(e[i]); s > anorm {
			anorm = s
		}
	}
	const eps = 2.220446049250313e-16 // 2⁻⁵²

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find the first negligible subdiagonal at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd || math.Abs(e[m]) <= eps*anorm {
					break
				}
			}
			if m == l {
				break // d[l] converged
			}
			if iter == maxQLIterationsPerEigenvalue {
				return ErrNoConvergence
			}
			// Implicit shift from the trailing 2×2.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					f := z[i+1]
					z[i+1] = s*z[i] + c*f
					z[i] = c*z[i] - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// EigenvaluesSym computes all eigenvalues (ascending) of the symmetric
// matrix a. The input is not modified.
func EigenvaluesSym(a *matrix.Dense) ([]float64, error) {
	if !a.IsSymmetric(symTol(a)) {
		return nil, errors.New("spectral: EigenvaluesSym requires a square symmetric matrix")
	}
	t := Householder(a)
	if err := QLImplicit(t, nil); err != nil {
		return nil, err
	}
	sort.Float64s(t.D)
	return t.D, nil
}

// symTol picks a symmetry tolerance proportional to the matrix magnitude.
func symTol(a *matrix.Dense) float64 {
	return 1e-12 * (1 + a.MaxAbs())
}
