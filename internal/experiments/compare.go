package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("E11", E11VsDimensionExchange)
	register("E12", E12VsFirstSecondOrder)
	register("E13", E13LocalDivergence)
}

// E11VsDimensionExchange reproduces the §3 comparison: Algorithm 1 balances
// over all edges concurrently while the [12] baseline activates a random
// matching, so diffusion should converge a constant factor faster on the
// same instances. Reports rounds to 1e-4·Φ⁰ for both, and the speedup.
func E11VsDimensionExchange(o Options) *trace.Table {
	t := trace.NewTable("E11 — Algorithm 1 vs dimension exchange [12] (rounds to 1e-4·Φ⁰, spike start)",
		"graph", "diffusion", "dimexchange (mean±sd)", "speedup")
	const eps = 1e-4
	reps := 10
	maxRounds := 500000
	if o.Quick {
		reps = 3
		maxRounds = 50000
	}
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, rng *rand.Rand) {
		g := suite[i]
		cfg := core.Config{Graph: g, Loads: workload.Continuous(workload.Spike, g.N(), 1e8, nil), Epsilon: eps}
		diffRounds := roundsTo(cfg, maxRounds)

		var dimRounds []float64
		cfg.Algorithm = core.DimensionExchange
		for k := 0; k < reps; k++ {
			cfg.Seed = rng.Int63()
			dimRounds = append(dimRounds, float64(roundsTo(cfg, maxRounds)))
		}
		s := stats.Summarize(dimRounds)
		speedup := s.Mean / float64(diffRounds)
		rows[i] = row{g.Name(), diffRounds, formatMeanSD(s), speedup}
	})
	emit(t, rows)
	t.Note("speedup > 1 on every topology with δ ≥ 3 reproduces the paper's 'constant times faster' claim; the factor grows with δ because a matching touches ≤ n/2 edges while diffusion touches all m. On the δ = 2 path and cycle a random matching does as well: diffusion's rounds lie within one sd of dimexchange's mean, a speedup of 1.")
	return t
}

// E12VsFirstSecondOrder reproduces the §2 comparison against [3, 15]:
// Algorithm 1's conservative 1/(4·max d) factor versus the first-order
// scheme's 1/(δ+1) and the optimally-accelerated second-order scheme.
// Reports rounds to 1e-6·Φ⁰ on each topology.
func E12VsFirstSecondOrder(o Options) *trace.Table {
	t := trace.NewTable("E12 — Algorithm 1 vs first-order [3] vs second-order [15] (rounds to 1e-6·Φ⁰)",
		"graph", "algorithm 1", "first order", "second order (β*)", "γ")
	const eps = 1e-6
	maxRounds := 500000
	if o.Quick {
		maxRounds = 50000
	}
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		g := suite[i]
		cfg := core.Config{Graph: g, Loads: workload.Continuous(workload.Spike, g.N(), 1e8, nil), Epsilon: eps}
		a1 := roundsTo(cfg, maxRounds)
		cfg.Algorithm = core.FirstOrder
		fo := roundsTo(cfg, maxRounds)

		gamma := math.NaN()
		so := maxRounds + 1
		if gm, err := speccache.Gamma(g); err == nil {
			gamma = gm
			cfg.Algorithm = core.SecondOrder
			so = roundsTo(cfg, maxRounds)
		}
		rows[i] = row{g.Name(), a1, fo, so, gamma}
	})
	emit(t, rows)
	t.Note("rounds = maxRounds+1 would mean not converged. Algorithm 1's lazy 1/(4·max d) factor costs roughly 4× against the first-order α=1/(δ+1), but it is what guarantees the per-activation drop of Lemma 1 on every topology; the second-order scheme accelerates further the closer γ is to 1.")
	return t
}

// E13LocalDivergence reproduces the [16] framing the paper builds on: run
// the discrete system against its idealized Markov chain and report the
// realized local divergence Ψ next to the O(δ·log n/µ) bound shape, and the
// final trajectory deviation.
func E13LocalDivergence(o Options) *trace.Table {
	t := trace.NewTable("E13 — local divergence of discrete vs idealized chain [16]",
		"graph", "rounds", "Ψ measured", "δ·ln(n)/µ shape", "Ψ/shape", "max ‖dev‖∞")
	horizon := 300
	if o.Quick {
		horizon = 60
	}
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		g := suite[i]
		gp, err := spectral.PaperGammaOf(g)
		mu := 1 - gp
		if err != nil || mu <= 0 {
			return
		}
		init := workload.Discrete(workload.Spike, g.N(), int64(g.N())*100000, nil)
		run := markov.Couple(g, init, horizon)
		shape := markov.PsiBoundShape(g, mu)
		rows[i] = row{g.Name(), run.Rounds, run.LocalDivergence, shape, run.LocalDivergence / shape, run.MaxDeviation}
	})
	emit(t, rows)
	t.Note("[16] predict Ψ = O(δ·log n/µ) per unit of moved load; the Ψ/shape column must stay bounded across topologies of the same family.")
	return t
}

// formatMeanSD renders mean±sd compactly for table cells.
func formatMeanSD(s stats.Summary) string {
	return fmt.Sprintf("%.4g±%.3g", s.Mean, s.Stddev())
}
