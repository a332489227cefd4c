// Package load defines the load-vector abstractions shared by every
// balancing algorithm in this repository, together with the quantities the
// paper's analysis tracks: the quadratic potential Φ(L) = Σ(ℓᵢ − ℓ̄)², the
// discrepancy K = max ℓᵢ − min ℓᵢ, and the error vector e = L − ℓ̄·1.
//
// A load vector is a plain []T for one Value type T: float64 loads
// (arbitrary splitting — the "ideal" model of §2.1) or int64 token counts
// (the model of §2.2 and §4.2). It is the only load representation: every
// balancing stepper owns one and exposes it through Values, and the
// generic Sum, Potential and Discrepancy measure it with op chains that do
// not depend on T beyond the conversion to float64. No algorithm in this
// repository creates or destroys load, and the test suite enforces this
// as a property.
package load

import "repro/internal/matrix"

// Value is the element type of a load vector: float64 for continuous load,
// int64 for indivisible tokens.
type Value interface{ float64 | int64 }

// Sum returns Σxᵢ, accumulated in T in index order.
func Sum[T Value](x []T) T {
	var s T
	for _, v := range x {
		s += v
	}
	return s
}

// Potential returns Φ = Σᵢ(xᵢ − x̄)² with x̄ = float64(Sum(x))/n, through
// the compensated pass of PotentialAround. Token counts convert to float64
// exactly, so a []int64 and its float64 copy have bit-identical Φ.
func Potential[T Value](x []T) float64 {
	if len(x) == 0 {
		return 0
	}
	return potentialAround(x, float64(Sum(x))/float64(len(x)))
}

// Discrepancy returns K = maxᵢxᵢ − minᵢxᵢ, and 0 for an empty vector.
// Test-only: the load, async and dimexchange discrepancy tests.
func Discrepancy[T Value](x []T) T {
	if len(x) == 0 {
		return 0
	}
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// PotentialAround returns Σᵢ(xᵢ − c)² computed with compensated summation;
// the potential is differenced across rounds, so we avoid losing the small
// per-round drops to cancellation.
func PotentialAround(x matrix.Vector, c float64) float64 {
	return potentialAround(x, c)
}

// potentialAround is PotentialAround over float64 loads or int64 token
// counts; the compensated op chain is the same for both.
func potentialAround[S ~[]E, E Value](x S, c float64) float64 {
	var sum, comp float64
	for _, v := range x {
		d := float64(v) - c
		term := d * d
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// PairwiseSquaredSum returns ΣᵢΣⱼ(ℓᵢ − ℓⱼ)² over all ordered pairs, the
// left side of the Lemma 10 identity ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² = 2n·Φ(L). It is O(n)
// via the expansion Σᵢⱼ(ℓᵢ−ℓⱼ)² = 2n·Σℓᵢ² − 2(Σℓᵢ)²; the O(n²) direct
// evaluation lives in the tests as the oracle.
func PairwiseSquaredSum(x matrix.Vector) float64 {
	n := float64(len(x))
	var s, sq float64
	for _, v := range x {
		s += v
		sq += v * v
	}
	return 2*n*sq - 2*s*s
}
