package matrix

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. It is a named slice type so that the
// numeric helpers read naturally at call sites (x.Dot(y), x.Norm2(), …).
type Vector []float64

// Clone returns a copy of x.
func (x Vector) Clone() Vector {
	out := make(Vector, len(x))
	copy(out, x)
	return out
}

// Dot returns ⟨x, y⟩. Panics if lengths differ.
func (x Vector) Dot(y Vector) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖x‖₂.
func (x Vector) Norm2() float64 {
	// Two-pass scaling keeps the computation stable for very large loads.
	var maxAbs float64
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Norm1 returns Σ|xᵢ|.
func (x Vector) Norm1() float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns max|xᵢ|.
func (x Vector) NormInf() float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Sum returns Σxᵢ.
func (x Vector) Sum() float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the average entry; 0 for the empty vector.
func (x Vector) Mean() float64 {
	if len(x) == 0 {
		return 0
	}
	return x.Sum() / float64(len(x))
}

// Scale multiplies every entry by s in place and returns x.
func (x Vector) Scale(s float64) Vector {
	for i := range x {
		x[i] *= s
	}
	return x
}

// AddScaled performs x ← x + s·y in place and returns x.
func (x Vector) AddScaled(s float64, y Vector) Vector {
	if len(x) != len(y) {
		panic("matrix: AddScaled length mismatch")
	}
	for i := range x {
		x[i] += s * y[i]
	}
	return x
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func (x Vector) Normalize() float64 {
	n := x.Norm2()
	if n == 0 {
		return 0
	}
	x.Scale(1 / n)
	return n
}

// ProjectOut removes the component of x along the (not necessarily unit)
// direction u, in place: x ← x − (⟨x,u⟩/⟨u,u⟩)·u.
func (x Vector) ProjectOut(u Vector) {
	uu := u.Dot(u)
	if uu == 0 {
		return
	}
	x.AddScaled(-x.Dot(u)/uu, u)
}

// Fill sets every entry to v and returns x.
func (x Vector) Fill(v float64) Vector {
	for i := range x {
		x[i] = v
	}
	return x
}

// ApproxEqual reports whether x and y agree entrywise within tol.
// Test-only: the matrix, diffusion, hetero and spectral matrix-oracle tests.
func (x Vector) ApproxEqual(y Vector, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}
