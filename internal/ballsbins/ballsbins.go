// Package ballsbins provides the balls-into-bins measurements behind the
// §6 discussion of Algorithm 2: when every one of n nodes picks a uniform
// partner, the partner-selection process is exactly n balls thrown into n
// bins, so the most-picked node has Θ(log n / log log n) incoming picks
// with high probability [1]. That is why Algorithm 2's analysis cannot go
// through the maximum degree and needs the per-link Lemma 9 instead.
package ballsbins

import (
	"math"
	"math/rand"
)

// Throw throws balls uniformly into bins and returns the bin occupancy.
func Throw(balls, bins int, rng *rand.Rand) []int {
	occ := make([]int, bins)
	for b := 0; b < balls; b++ {
		occ[rng.Intn(bins)]++
	}
	return occ
}

// MaxLoad returns the fullest bin's occupancy after throwing balls into
// bins uniformly at random.
func MaxLoad(balls, bins int, rng *rand.Rand) int {
	occ := Throw(balls, bins, rng)
	max := 0
	for _, c := range occ {
		if c > max {
			max = c
		}
	}
	return max
}

// ExpectedMaxLoadApprox returns the classical asymptotic approximation of
// the maximum load for n balls in n bins: ln n / ln ln n (leading term).
// Defined for n ≥ 3 (ln ln n > 0); the experiments only use it there.
func ExpectedMaxLoadApprox(n int) float64 {
	if n < 3 {
		return 1
	}
	return math.Log(float64(n)) / math.Log(math.Log(float64(n)))
}

// MaxLoadStats runs trials of n-balls-into-n-bins and returns the sample of
// maximum loads; the E14 experiment summarizes it against
// ExpectedMaxLoadApprox.
func MaxLoadStats(n, trials int, rng *rand.Rand) []float64 {
	out := make([]float64, trials)
	for t := range out {
		out[t] = float64(MaxLoad(n, n, rng))
	}
	return out
}
