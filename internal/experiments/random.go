package experiments

import (
	"math"
	"math/rand"

	"repro/internal/ballsbins"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/randpair"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("E7", E7PartnerDegree)
	register("E8", E8PotentialIdentity)
	register("E9", E9RandomPartners)
	register("E10", E10RandomPartnersDiscrete)
	register("E14", E14BallsBins)
}

// E7PartnerDegree validates Lemma 9: conditioned on a link existing, both
// endpoints have at most 5 balancing partners with probability > 0.5.
// Monte-Carlo over round draws, swept over n.
func E7PartnerDegree(o Options) *trace.Table {
	t := trace.NewTable("E7 — Lemma 9: Pr[max(dᵢ,dⱼ) ≤ 5 | (i,j) ∈ E]",
		"n", "rounds sampled", "Pr[≤5 | link]", "paper bound", "max degree seen")
	sizes := []int{16, 64, 256, 1024, 4096}
	rounds := 400
	if o.Quick {
		sizes = []int{64, 256}
		rounds = 50
	}
	rows := make([]row, len(sizes))
	o.sweep(len(rows), func(i int, rng *rand.Rand) {
		n := sizes[i]
		p, maxDeg := randpair.PartnerDegreeProbe(n, rounds, rng)
		rows[i] = row{n, rounds, p, 0.5, maxDeg}
	})
	emit(t, rows)
	t.Note("Lemma 9 holds when every probability exceeds 0.5 (measured values are typically ≈0.97).")
	return t
}

// E8PotentialIdentity validates Lemma 10 numerically: the O(n) closed form
// of ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² equals 2n·Φ(L) against the O(n²) direct double sum, over
// random load vectors of growing size.
func E8PotentialIdentity(o Options) *trace.Table {
	t := trace.NewTable("E8 — Lemma 10: ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² = 2n·Φ(L)",
		"n", "workload", "max |lhs−rhs|/rhs")
	sizes := []int{8, 64, 512}
	if o.Quick {
		sizes = []int{8, 64}
	}
	kinds := []workload.Kind{workload.Spike, workload.Uniform, workload.PowerLaw}
	rows := make([]row, len(sizes)*len(kinds))
	o.sweep(len(rows), func(ci int, rng *rand.Rand) {
		n, k := sizes[ci/len(kinds)], kinds[ci%len(kinds)]
		var worst float64
		for rep := 0; rep < 20; rep++ {
			x := matrix.Vector(workload.Continuous(k, n, 1e4, rng))
			lhs := load.PairwiseSquaredSum(x)
			var direct float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d := x[i] - x[j]
					direct += d * d
				}
			}
			rhs := 2 * float64(n) * load.PotentialAround(x, x.Mean())
			if rhs == 0 {
				continue
			}
			relA := math.Abs(lhs-rhs) / rhs
			relB := math.Abs(direct-rhs) / rhs
			if relA > worst {
				worst = relA
			}
			if relB > worst {
				worst = relB
			}
		}
		rows[ci] = row{n, k.String(), worst}
	})
	emit(t, rows)
	t.Note("all relative errors must sit at floating-point noise (≲1e-9).")
	return t
}

// E9RandomPartners validates Lemma 11 and Theorem 12: the continuous
// Algorithm 2 contracts Φ by ≤ 19/20 per round in expectation, and reaches
// Φ ≤ e⁻ᶜ within 120c·lnΦ⁰ rounds.
func E9RandomPartners(o Options) *trace.Table {
	t := trace.NewTable("E9 — Lemma 11 / Theorem 12: continuous random partners",
		"n", "mean Φᵗ⁺¹/Φᵗ", "bound 19/20", "rounds to e⁻¹", "Thm 12 bound (c=1)", "rounds/bound")
	sizes := []int{32, 128, 512}
	trials := 200
	if o.Quick {
		sizes = []int{64}
		trials = 40
	}
	rows := make([]row, len(sizes))
	o.sweep(len(rows), func(i int, rng *rand.Rand) {
		n := sizes[i]
		// Per-round contraction from a spike start, averaged over trials.
		init := workload.Continuous(workload.Spike, n, float64(n)*1000, nil)
		var factors []float64
		for k := 0; k < trials; k++ {
			st := randpair.New(init, rng)
			phi0 := st.Potential()
			st.Step()
			factors = append(factors, st.Potential()/phi0)
		}
		meanFactor := stats.Summarize(factors).Mean

		// Full convergence run to Φ ≤ e⁻¹ (c = 1).
		st := randpair.New(init, rng)
		phi0 := st.Potential()
		bound := 120 * math.Log(phi0)
		rounds, _ := stepUntil(st, math.Exp(-1), int(bound)+1)
		rows[i] = row{n, meanFactor, randpair.ContinuousDropBound, rounds, bound, float64(rounds) / bound}
	})
	emit(t, rows)
	t.Note("Lemma 11 holds when mean factor ≤ 0.95; Theorem 12 when rounds/bound ≤ 1 (measured is typically ≪).")
	return t
}

// E10RandomPartnersDiscrete validates Lemma 13 and Theorem 14: the discrete
// Algorithm 2 contracts by ≤ 39/40 per round while Φ ≥ 3200n and reaches
// the threshold within 240c·ln(Φ⁰/3200n) rounds.
func E10RandomPartnersDiscrete(o Options) *trace.Table {
	t := trace.NewTable("E10 — Lemma 13 / Theorem 14: discrete random partners",
		"n", "mean Φᵗ⁺¹/Φᵗ", "bound 39/40", "rounds to 3200n", "Thm 14 bound (c=1)", "rounds/bound")
	sizes := []int{32, 128, 512}
	trials := 200
	if o.Quick {
		sizes = []int{64}
		trials = 40
	}
	rows := make([]row, len(sizes))
	o.sweep(len(rows), func(i int, rng *rand.Rand) {
		n := sizes[i]
		init := workload.Discrete(workload.Spike, n, int64(n)*100000, nil)
		var factors []float64
		for k := 0; k < trials; k++ {
			st := randpair.New(init, rng)
			phi0 := st.Potential()
			st.Step()
			factors = append(factors, st.Potential()/phi0)
		}
		meanFactor := stats.Summarize(factors).Mean

		st := randpair.New(init, rng)
		phi0 := st.Potential()
		thr := randpair.DiscreteThreshold(n)
		bound := 240 * math.Log(phi0/thr)
		rounds, _ := stepUntil(st, thr, int(bound)+1)
		rows[i] = row{n, meanFactor, randpair.DiscreteDropBound, rounds, bound, float64(rounds) / bound}
	})
	emit(t, rows)
	t.Note("Lemma 13 holds when mean factor ≤ 0.975 above the 3200n threshold; Theorem 14 when rounds/bound ≤ 1.")
	return t
}

// E14BallsBins validates the §6 balls-into-bins discussion: the maximum
// partner count grows like ln n/ln ln n, so no analysis through the maximum
// degree can give Lemma 11's constant drop.
func E14BallsBins(o Options) *trace.Table {
	t := trace.NewTable("E14 — balls into bins: maximum partner count vs Θ(ln n/ln ln n)",
		"n", "mean max load", "ln n/ln ln n", "ratio")
	sizes := []int{64, 256, 1024, 4096, 16384}
	trials := 100
	if o.Quick {
		sizes = []int{256, 1024}
		trials = 20
	}
	rows := make([]row, len(sizes))
	o.sweep(len(rows), func(i int, rng *rand.Rand) {
		n := sizes[i]
		sample := ballsbins.MaxLoadStats(n, trials, rng)
		mean := stats.Summarize(sample).Mean
		approx := ballsbins.ExpectedMaxLoadApprox(n)
		rows[i] = row{n, mean, approx, mean / approx}
	})
	emit(t, rows)
	t.Note("the ratio must stay bounded (Θ(1)) as n grows — the Θ(ln n/ln ln n) shape of [1].")
	return t
}
