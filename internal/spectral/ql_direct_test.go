package spectral

import (
	"math"
	"testing"
)

// QLImplicit is normally reached through Householder; these tests drive it
// directly on genuinely tridiagonal matrices with known spectra.

func TestQLImplicitKnownTridiagonal(t *testing.T) {
	// The n×n tridiagonal with diagonal 2 and off-diagonal −1 (the path
	// Laplacian plus identity corrections is close, but this matrix is the
	// Dirichlet Laplacian) has eigenvalues 2 − 2cos(kπ/(n+1)), k = 1..n.
	n := 12
	d := make([]float64, n)
	e := make([]float64, n)
	for i := range d {
		d[i] = 2
	}
	for i := 1; i < n; i++ {
		e[i] = -1
	}
	tri := Tridiagonal{D: d, E: e}
	if err := QLImplicit(tri, nil); err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), tri.D...)
	sortInPlace(got)
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(got[k-1]-want) > 1e-10 {
			t.Fatalf("eigenvalue %d: got %v want %v", k, got[k-1], want)
		}
	}
}

func TestQLImplicitDiagonalInput(t *testing.T) {
	tri := Tridiagonal{D: []float64{5, -2, 7}, E: make([]float64, 3)}
	if err := QLImplicit(tri, nil); err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), tri.D...)
	sortInPlace(got)
	want := []float64{-2, 5, 7}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestQLImplicitEmptyInput(t *testing.T) {
	if err := QLImplicit(Tridiagonal{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQLImplicitWithVectors(t *testing.T) {
	// 2×2 tridiagonal [[1,2],[2,1]]: eigenvalues −1 and 3, eigenvectors
	// (1, ∓1)/√2. Rotating the identity's last row yields the last entry
	// of each eigenvector: ±1/√2.
	tri := Tridiagonal{D: []float64{1, 1}, E: []float64{0, 2}}
	z := []float64{0, 1}
	if err := QLImplicit(tri, z); err != nil {
		t.Fatal(err)
	}
	for c := range z {
		if math.Abs(math.Abs(z[c])-1/math.Sqrt2) > 1e-12 {
			t.Fatalf("λ=%v: |z[%d]| = %v, want 1/√2", tri.D[c], c, math.Abs(z[c]))
		}
	}
}

func sortInPlace(v []float64) {
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
