// Package markov implements the idealized-Markov-chain view of discrete
// load balancing from Rabani, Sinclair and Wanka [16], which the paper's
// related-work section positions itself against.
//
// The idealized chain evolves the continuous vector xᵗ⁺¹ = M·xᵗ for the
// scheme's diffusion matrix M, while the actual discrete system moves only
// integral tokens. [16] quantify the deviation of the two trajectories by
// the *local divergence* Ψ: the sum over time and over edges of the load
// differences the rounding introduces, and prove Ψ(M) = O(δ·log n/µ) where
// µ = 1 − γ is the eigenvalue gap. This package runs the two systems in
// lockstep and measures the realized divergence and the trajectory gap
// ‖discrete − idealized‖∞, which the E13 experiment reports.
package markov

import (
	"math"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// CoupledRun is the outcome of running the discrete system against its
// idealized chain for T rounds from the same start.
type CoupledRun struct {
	Rounds int
	// LocalDivergence is Σ_t Σ_{(i,j)∈E} |Δᵗᵢ − Δᵗⱼ| where Δᵗ is the
	// per-node deviation (discrete − idealized) after round t: the realized
	// analogue of [16]'s Ψ.
	LocalDivergence float64
	// MaxDeviation is max over rounds of ‖discrete − idealized‖∞.
	MaxDeviation float64
	// FinalDeviation is ‖discrete − idealized‖∞ after the last round.
	FinalDeviation float64
	// IdealPhi and DiscretePhi are the final potentials of both systems.
	IdealPhi, DiscretePhi float64
}

// Couple runs the discrete Algorithm 1 and the idealized continuous chain
// (same transfer rule, fractional flows) in lockstep for T rounds on g.
func Couple(g *graph.G, initial []int64, T int) CoupledRun {
	disc := diffusion.New(g, initial)
	init := make([]float64, len(initial))
	for i, v := range initial {
		init[i] = float64(v)
	}
	ideal := diffusion.New(g, init)

	out := CoupledRun{Rounds: T}
	dev := make(matrix.Vector, g.N())
	for t := 0; t < T; t++ {
		disc.Step()
		ideal.Step()
		dv := disc.Values()
		iv := ideal.Values()
		for i := range dev {
			dev[i] = float64(dv[i]) - iv[i]
		}
		var roundDiv float64
		for _, e := range g.Edges() {
			roundDiv += math.Abs(dev[e.U] - dev[e.V])
		}
		out.LocalDivergence += roundDiv
		if inf := dev.NormInf(); inf > out.MaxDeviation {
			out.MaxDeviation = inf
		}
	}
	out.FinalDeviation = dev.NormInf()
	out.IdealPhi = ideal.Potential()
	out.DiscretePhi = disc.Potential()
	return out
}

// PsiBoundShape returns the [16] divergence-bound shape δ·ln(n)/µ that E13
// compares the measured Ψ against (the theorem hides a constant; the
// experiment reports the ratio, which should stay bounded as n grows).
func PsiBoundShape(g *graph.G, mu float64) float64 {
	if mu <= 0 {
		return math.Inf(1)
	}
	return float64(g.MaxDegree()) * math.Log(float64(g.N())) / mu
}
