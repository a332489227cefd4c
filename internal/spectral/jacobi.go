package spectral

import (
	"math"
	"sort"

	"repro/internal/matrix"
)

// JacobiEigen computes all eigenvalues (ascending) of the symmetric matrix
// a using the cyclic Jacobi rotation method. It is slower than the
// Householder+QL path but numerically very robust and completely
// independent of it, so the test suite uses the two as mutual checks.
// The input is not modified.
// Test-only: TestJacobiMatchesQL, TestJacobiCompleteDegenerate, root TestLambda2SolverAgreement.
func JacobiEigen(a *matrix.Dense) ([]float64, error) {
	n := a.Rows()
	if a.Cols() != n {
		panic("spectral: JacobiEigen requires a square matrix")
	}
	if !a.IsSymmetric(symTol(a)) {
		return nil, errSymmetry
	}
	m := a.Clone()
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(m)
		if off < 1e-11*(1+m.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				// Rotation angle: tan(2θ) = 2apq / (app − aqq).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(m, p, q, c, s)
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	sort.Float64s(vals)
	return vals, nil
}

// applyJacobiRotation applies the symmetric similarity transform
// m ← JᵀmJ for the Givens rotation J in the (p, q) plane.
func applyJacobiRotation(m *matrix.Dense, p, q int, c, s float64) {
	n := m.Rows()
	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		mkp, mkq := m.At(k, p), m.At(k, q)
		m.Set(k, p, c*mkp-s*mkq)
		m.Set(p, k, m.At(k, p))
		m.Set(k, q, s*mkp+c*mkq)
		m.Set(q, k, m.At(k, q))
	}
	app, aqq, apq := m.At(p, p), m.At(q, q), m.At(p, q)
	m.Set(p, p, c*c*app-2*s*c*apq+s*s*aqq)
	m.Set(q, q, s*s*app+2*s*c*apq+c*c*aqq)
	m.Set(p, q, 0)
	m.Set(q, p, 0)
}

func offDiagNorm(m *matrix.Dense) float64 {
	n := m.Rows()
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}

var errSymmetry = errNotSymmetric{}

type errNotSymmetric struct{}

func (errNotSymmetric) Error() string { return "spectral: matrix is not symmetric" }
