package experiments

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/speccache"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("E5", E5DynamicContinuous)
	register("E6", E6DynamicDiscrete)
}

// dynScenario names one dynamic-network scenario of §5 and builds it on
// demand: each sweep cell calls build() for its own private Sequence (they
// hold mutable RNG state), so nothing is shared across pool goroutines and
// only the scenarios actually run get constructed.
type dynScenario struct {
	name  string
	build func() dynamic.Sequence
}

// dynamicScenarios lists the graph-sequence sweep of §5 over one base torus
// (returned too; graphs are immutable, so sharing it is safe): random
// subgraphs at several survival probabilities, periodic edge failures, and
// alternating topologies. The constructors are deterministic given seed.
func dynamicScenarios(seed int64, quick bool) (*graph.G, []dynScenario) {
	side := 6
	if quick {
		side = 4
	}
	base := graph.Torus(side, side)
	mk := func(i int) *rand.Rand { return rand.New(rand.NewSource(seed + int64(i))) }
	out := []dynScenario{
		{"static torus", func() dynamic.Sequence { return dynamic.Static{G: base} }},
		{"subgraph p=0.9", func() dynamic.Sequence {
			return &dynamic.RandomSubgraphs{Base: base, KeepProb: 0.9, RNG: mk(1)}
		}},
		{"subgraph p=0.6", func() dynamic.Sequence {
			return &dynamic.RandomSubgraphs{Base: base, KeepProb: 0.6, RNG: mk(2)}
		}},
		{"fail 8 edges", func() dynamic.Sequence {
			return &dynamic.EdgeFailures{Base: base, FailCount: 8, RNG: mk(3)}
		}},
		{"torus/cycle alt", func() dynamic.Sequence {
			alt, err := dynamic.NewAlternating(base, graph.Cycle(base.N()))
			if err != nil {
				panic(err)
			}
			return alt
		}},
	}
	if quick {
		out = out[:3]
	}
	return base, out
}

// dynamicRun is one run of Algorithm 1 against a graph sequence: the
// session's Result plus the per-round spectra Theorems 7 and 8 are stated
// in.
type dynamicRun struct {
	core.Result
	stats []dynamic.RoundStat
	// ak is A_K = (1/K)·Σ λ₂⁽ᵏ⁾/δ⁽ᵏ⁾ over the K executed rounds
	// (disconnected rounds contribute 0).
	ak float64
}

// runDynamic opens a session on base and, before every round k, activates
// seq.Next(k) — drawn exactly once per executed round — then steps and
// commits, until Φ ≤ target or maxRounds rounds have run. λ₂ goes through
// a run-local speccache: sequences that revisit graphs pay for each
// distinct one once, and the one-shot graphs of a churning sequence die
// with the run instead of filling the process-wide cache.
func runDynamic(base *graph.G, seq dynamic.Sequence, mode core.Mode, target float64, maxRounds int) dynamicRun {
	init := workload.Continuous(workload.Spike, base.N(), 1e9, nil)
	s, err := core.Open(core.Config{Graph: base, Mode: mode, Loads: init})
	if err != nil {
		panic(err)
	}
	cache := speccache.New()
	var run dynamicRun
	var sum float64
	for k := 0; k < maxRounds && s.Phi() > target; k++ {
		g := seq.Next(k)
		if err := s.SwapGraph(g); err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
		phi, err := s.Commit()
		if err != nil {
			panic(err)
		}
		stat := dynamic.RoundStat{Round: k, Delta: g.MaxDegree(), Phi: phi}
		if l2, err := cache.Lambda2(g); err == nil {
			stat.Lambda2 = l2
			if stat.Delta > 0 {
				sum += l2 / float64(stat.Delta)
			}
		}
		run.stats = append(run.stats, stat)
	}
	if k := len(run.stats); k > 0 {
		run.ak = sum / float64(k)
	}
	run.Result = s.Close()
	return run
}

// E5DynamicContinuous validates Theorem 7: the continuous Algorithm 1 on a
// dynamic sequence reaches ε·Φ⁰ within O(ln(1/ε)/A_K) rounds, where
// A_K = avg λ₂⁽ᵏ⁾/δ⁽ᵏ⁾ over the executed rounds. Since the theorem comes
// from the Theorem 4 machinery, the constant is 4.
func E5DynamicContinuous(o Options) *trace.Table {
	t := trace.NewTable("E5 — Theorem 7: continuous diffusion on dynamic networks",
		"sequence", "ε", "rounds K", "A_K", "bound 4·ln(1/ε)/A_K", "K/bound")
	const eps = 1e-4
	maxRounds := 50000
	if o.Quick {
		maxRounds = 5000
	}
	base, scenarios := dynamicScenarios(o.seed(), o.Quick)
	target := eps * potentialOf(workload.Continuous(workload.Spike, base.N(), 1e9, nil))
	rows := make([]row, len(scenarios))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		sc := scenarios[i]
		res := runDynamic(base, sc.build(), core.Continuous, target, maxRounds)
		bound := math.NaN()
		ratio := math.NaN()
		if res.ak > 0 {
			bound = 4 * math.Log(1/eps) / res.ak
			ratio = float64(res.Rounds) / bound
		}
		rows[i] = row{sc.name, eps, res.Rounds, res.ak, bound, ratio}
	})
	emit(t, rows)
	t.Note("Theorem 7 holds when K/bound ≤ 1; disconnected rounds lower A_K and are charged to the bound automatically.")
	return t
}

// E6DynamicDiscrete validates Theorem 8: the discrete Algorithm 1 on a
// dynamic sequence reaches Φ* = 64n·max(δ³/λ₂) within O(ln(Φ⁰/Φ*)/A_K).
func E6DynamicDiscrete(o Options) *trace.Table {
	t := trace.NewTable("E6 — Theorem 8: discrete diffusion on dynamic networks",
		"sequence", "Φ⁰", "Φ*", "rounds K", "A_K", "bound 8·ln(Φ⁰/Φ*)/A_K", "K/bound")
	maxRounds := 50000
	if o.Quick {
		maxRounds = 5000
	}
	base, scenarios := dynamicScenarios(o.seed()+100, o.Quick)
	rows := make([]row, len(scenarios))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		sc := scenarios[i]
		// Pilot run records spectra so Φ* can be formed, then the main run
		// stops at Φ*. The pilot consumes the first build; the main run gets
		// an identically-seeded fresh build, so both see the same sequence
		// realization. The per-round λ₂/δ distribution is stationary, so a
		// few hundred pilot rounds pin down the max(δ³/λ₂) term.
		pilotRounds := 500
		if maxRounds < pilotRounds {
			pilotRounds = maxRounds
		}
		pilot := runDynamic(base, sc.build(), core.Discrete, 0, pilotRounds)
		phiStar := dynamic.Theorem8Threshold(base.N(), pilot.stats)
		res := runDynamic(base, sc.build(), core.Discrete, phiStar, maxRounds)
		bound := math.NaN()
		ratio := math.NaN()
		if res.ak > 0 && res.PhiStart > phiStar {
			bound = 8 * math.Log(res.PhiStart/phiStar) / res.ak
			ratio = float64(res.Rounds) / bound
		}
		rows[i] = row{sc.name, res.PhiStart, phiStar, res.Rounds, res.ak, bound, ratio}
	})
	emit(t, rows)
	t.Note("Theorem 8 holds when K/bound ≤ 1. Φ* uses the per-round spectra of a pilot run over the same sequence.")
	return t
}

// potentialOf computes Φ of a float slice without constructing a load.
func potentialOf(v []float64) float64 {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var s float64
	for _, x := range v {
		d := x - mean
		s += d * d
	}
	return s
}
