// Proofgap: a walk through the paper's analytical device on a concrete
// instance. We take one round of Algorithm 1 on a small torus, sequentialize
// it exactly as the proof does (activate edges in increasing weight order,
// flows frozen from the round start), print the per-edge potential drops
// against their Lemma 1 lower bounds, and verify:
//
//  1. every activation satisfies ΔΦ ≥ w·|ℓᵢ−ℓⱼ|          (Lemma 1),
//  2. the drops sum exactly to the concurrent round's drop (the
//     decomposition that lets the proof "neglect" concurrency),
//  3. the round drop meets the Lemma 2 bound (1/4δ)·Σ(ℓᵢ−ℓⱼ)².
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/sequential"
	"repro/internal/workload"
)

func main() {
	g := graph.Torus(3, 3)
	rng := rand.New(rand.NewSource(3))
	l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 100, rng))

	fmt.Printf("instance: %s, uniform random loads\n", g)
	fmt.Printf("start loads: ")
	for _, v := range l {
		fmt.Printf("%6.1f ", v)
	}
	fmt.Println()

	rt := sequential.Sequentialize(g, l, sequential.IncreasingWeight, rng)

	fmt.Println("\nsequentialized activations (increasing weight, flows frozen at round start):")
	fmt.Printf("%-10s %-10s %-12s %-14s %-14s %s\n", "edge", "w_ij", "|ℓᵢ-ℓⱼ|", "drop ΔΦ", "bound w·|diff|", "Lemma 1")
	for _, a := range rt.Activations {
		if a.Weight == 0 {
			continue
		}
		status := "ok"
		if !a.Lemma1Holds() {
			status = "VIOLATED"
		}
		fmt.Printf("(%2d,%2d)    %-10.4f %-12.4f %-14.6f %-14.6f %s\n",
			a.Edge.U, a.Edge.V, a.Weight, a.StartDiff, a.Drop, a.Lemma1RHS, status)
	}

	// The concurrent round from the same start.
	st := diffusion.New(g, l)
	phi0 := st.Potential()
	st.Step()
	concurrentDrop := phi0 - st.Potential()

	fmt.Printf("\nΦ start                         : %.6f\n", rt.PhiStart)
	fmt.Printf("Σ per-activation drops          : %.6f\n", rt.TotalDrop())
	fmt.Printf("concurrent round drop           : %.6f  (identical — same flows)\n", concurrentDrop)
	fmt.Printf("Lemma 2 bound (1/4δ)·Σ(ℓᵢ-ℓⱼ)² : %.6f\n", rt.Lemma2RHS)
	fmt.Printf("Lemma 1 violations              : %d\n", rt.Lemma1Violations())

	// Contrast: a genuinely sequential greedy round (recompute flows after
	// every activation) — what a sequential algorithm could do with the
	// same edge budget.
	greedyEnd := sequential.GreedyRound(g, l, sequential.IncreasingWeight, rng)
	fmt.Printf("greedy sequential round drop    : %.6f (recomputes flows per edge)\n", rt.PhiStart-greedyEnd)
	fmt.Println("\nThe paper's point: the concurrent drop is within a constant factor of")
	fmt.Println("what any sequential attribution certifies — so the sequential analysis")
	fmt.Println("of [12] transfers to the concurrent algorithm at the cost of that factor.")
}
