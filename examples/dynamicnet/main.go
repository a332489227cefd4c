// Dynamicnet: a P2P-flavoured scenario for the §5 dynamic-network model.
// A 64-node overlay keeps its node set but loses a random subset of links
// every round (churn). We run the continuous and discrete Algorithm 1
// against increasingly unreliable link layers and report the rounds needed
// next to the Theorem 7/8 bounds built from the measured per-round
// λ₂⁽ᵏ⁾/δ⁽ᵏ⁾ averages. Every run is one core.Session whose active graph is
// swapped to the round's overlay with SwapGraph before each Step.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/speccache"
	"repro/internal/workload"
)

func main() {
	const (
		seed = 7
		eps  = 1e-4
	)
	base := graph.Hypercube(6) // 64-node overlay
	fmt.Printf("overlay: %s, links survive each round with probability p\n\n", base)

	fmt.Println("— continuous (Theorem 7) —")
	fmt.Printf("%-8s %-8s %-10s %-12s %-8s\n", "p", "rounds", "A_K", "bound", "K/bound")
	for _, p := range []float64{1.0, 0.9, 0.7, 0.5, 0.3} {
		seq := &dynamic.RandomSubgraphs{Base: base, KeepProb: p, RNG: rand.New(rand.NewSource(seed))}
		phi0 := potential(workload.Continuous(workload.Spike, base.N(), 1e9, nil))
		res, _, ak := run(base, seq, core.Continuous, eps*phi0, 200000)
		bound := math.NaN()
		if ak > 0 {
			bound = 4 * math.Log(1/eps) / ak
		}
		fmt.Printf("%-8.2f %-8d %-10.4f %-12.1f %-8.3f\n",
			p, res.Rounds, ak, bound, float64(res.Rounds)/bound)
	}

	fmt.Println("\n— discrete (Theorem 8) —")
	fmt.Printf("%-8s %-8s %-12s %-12s\n", "p", "rounds", "Φ end", "Φ* threshold")
	for _, p := range []float64{1.0, 0.7, 0.4} {
		seq := &dynamic.RandomSubgraphs{Base: base, KeepProb: p, RNG: rand.New(rand.NewSource(seed + 1))}
		_, pilot, _ := run(base, seq, core.Discrete, 0, 5000)
		phiStar := dynamic.Theorem8Threshold(base.N(), pilot)
		res, _, _ := run(base, seq, core.Discrete, phiStar, 200000)
		fmt.Printf("%-8.2f %-8d %-12.4g %-12.4g\n", p, res.Rounds, res.PhiEnd, phiStar)
	}

	fmt.Println("\nShape to observe: as p drops, per-round connectivity (λ₂⁽ᵏ⁾) and")
	fmt.Println("hence A_K shrink, and the measured rounds grow like 1/A_K — but the")
	fmt.Println("run always stays within the Theorem 7/8 budget, including rounds in")
	fmt.Println("which the overlay is disconnected (they simply contribute 0 to A_K).")
}

// run balances a 10⁹-unit spike on one session that starts on base: before
// each round k it activates seq.Next(k), then steps and commits, until
// Φ ≤ target or maxRounds rounds. It returns the run, each round's λ₂⁽ᵏ⁾
// and δ⁽ᵏ⁾ (what Theorem 8's threshold is formed from), and their average
// ratio A_K.
func run(base *graph.G, seq dynamic.Sequence, mode core.Mode, target float64, maxRounds int) (core.Result, []dynamic.RoundStat, float64) {
	s, err := core.Open(core.Config{Graph: base, Mode: mode, Loads: workload.Continuous(workload.Spike, base.N(), 1e9, nil)})
	if err != nil {
		panic(err)
	}
	cache := speccache.New() // the churned overlays are one-shot: keep them out of the shared cache
	var stats []dynamic.RoundStat
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
		if l2, err := cache.Lambda2(g); err == nil && stat.Delta > 0 {
			stat.Lambda2 = l2
			sum += l2 / float64(stat.Delta)
		}
		stats = append(stats, stat)
	}
	ak := 0.0
	if len(stats) > 0 {
		ak = sum / float64(len(stats))
	}
	return s.Close(), stats, ak
}

func potential(v []float64) float64 {
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
