package experiments

import (
	"math/rand"

	"repro/internal/hetero"
	"repro/internal/markov"
	"repro/internal/spectral"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("A6", A6Heterogeneous)
	register("A7", A7PsiExact)
}

// A6Heterogeneous exercises the heterogeneous extension of [9]: Algorithm 1
// generalized to speed-proportional balance. Sweeps the speed skew on each
// topology and reports rounds until the per-speed relative deviation falls
// below 1e-6, showing how heterogeneity stretches convergence relative to
// the uniform-speed baseline (skew 1).
func A6Heterogeneous(o Options) *trace.Table {
	t := trace.NewTable("A6 — heterogeneous diffusion [9]: rounds to 1e-6 relative deviation vs speed skew",
		"graph", "speed skew", "rounds", "slowdown vs uniform")
	skews := []float64{1, 2, 8, 32}
	if o.Quick {
		skews = []float64{1, 8}
	}
	horizon := 200000
	if o.Quick {
		horizon = 20000
	}
	suite := fixedSuite(o.Quick)
	allRounds := make([]int, len(suite)*len(skews))
	o.sweep(len(allRounds), func(ci int, rng *rand.Rand) {
		g, skew := suite[ci/len(skews)], skews[ci%len(skews)]
		allRounds[ci] = -1
		speeds := make([]float64, g.N())
		for i := range speeds {
			// Half the nodes fast (speed = skew), half slow (speed 1),
			// randomly assigned so slow/fast regions are not aligned
			// with topology structure.
			if rng.Intn(2) == 0 {
				speeds[i] = skew
			} else {
				speeds[i] = 1
			}
		}
		init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
		h, err := hetero.New(g, init, speeds)
		if err != nil {
			return
		}
		rounds := horizon + 1
		for r := 0; r <= horizon; r++ {
			if h.MaxRelativeDeviation() <= 1e-6 {
				rounds = r
				break
			}
			h.Step()
		}
		allRounds[ci] = rounds
	})
	// The slowdown column is relative to each graph's skew-1 baseline, so it
	// is a post-pass over the collected cells (skews[0] is always 1).
	for ci, rounds := range allRounds {
		if rounds < 0 {
			continue
		}
		g := suite[ci/len(skews)]
		baseRounds := allRounds[(ci/len(skews))*len(skews)]
		slowdown := 0.0
		if baseRounds > 0 {
			slowdown = float64(rounds) / float64(baseRounds)
		}
		t.AddRowf(g.Name(), skews[ci%len(skews)], rounds, slowdown)
	}
	t.Note("skew 1 is the homogeneous baseline (identical to Algorithm 1); rising skew narrows the effective conductance between slow and fast regions and stretches convergence accordingly.")
	return t
}

// A7PsiExact computes the exact (finite-horizon) local divergence Ψ(M) of
// [16] from the diffusion-matrix powers — the quantity E13 samples from one
// trajectory — and compares it against the δ·log n/µ bound shape across the
// topology suite.
func A7PsiExact(o Options) *trace.Table {
	t := trace.NewTable("A7 — exact local divergence Ψ(M) of [16] vs bound shape",
		"graph", "µ = 1−γ", "horizon", "Ψ(M)", "δ·ln(n)/µ", "Ψ/shape")
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		g := suite[i]
		m := spectral.PaperDiffusionMatrix(g)
		mu, err := spectral.EigenGap(m)
		if err != nil || mu <= 0 {
			return
		}
		horizon := int(20/mu) + 50
		if max := 20000; horizon > max {
			horizon = max
		}
		psi := markov.PsiMatrix(g, m, horizon)
		shape := markov.PsiBoundShape(g, mu)
		rows[i] = row{g.Name(), mu, horizon, psi, shape, psi / shape}
	})
	emit(t, rows)
	t.Note("[16] prove Ψ(M) = O(δ·log n/µ); Ψ/shape staying within a moderate constant across the suite reproduces that theorem's content.")
	return t
}
