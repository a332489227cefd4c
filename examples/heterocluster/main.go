// Heterocluster: the heterogeneous extension in action. A mixed rack of
// fast and slow machines (speeds 4 and 1) on a torus receives a skewed
// batch; the generalized Algorithm 1 of internal/hetero balances load
// *proportionally to speed*, so fast machines end with 4× the work of slow
// ones — the fair state of Elsässer, Monien and Preis [9].
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/load"
	"repro/internal/workload"
)

func main() {
	const (
		side  = 8
		total = 1_000_000
		seed  = 11
	)
	g := graph.Torus(side, side)
	rng := rand.New(rand.NewSource(seed))

	// Checkerboard of fast (speed 4) and slow (speed 1) machines.
	speeds := make([]float64, g.N())
	fast := 0
	for i := range speeds {
		if (i/side+i%side)%2 == 0 {
			speeds[i] = 4
			fast++
		} else {
			speeds[i] = 1
		}
	}

	init := workload.Continuous(workload.PowerLaw, g.N(), total/float64(g.N()), rng)
	h, err := hetero.New(g, init, speeds)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cluster : %s — %d fast (speed 4), %d slow (speed 1)\n", g, fast, g.N()-fast)
	fmt.Printf("total   : %.4g load, skewed power-law arrival\n", load.Sum(h.Values()))
	fmt.Printf("fair ω  : %.4g load per unit speed\n\n", h.Omega())

	fmt.Printf("%-8s %-14s %-18s\n", "round", "Φ_c", "max rel deviation")
	round := 0
	for ; h.MaxRelativeDeviation() > 1e-6 && round < 100000; round++ {
		if round%50 == 0 {
			fmt.Printf("%-8d %-14.6g %-18.6g\n", round, h.Potential(), h.MaxRelativeDeviation())
		}
		h.Step()
	}
	fmt.Printf("%-8d %-14.6g %-18.6g\n\n", round, h.Potential(), h.MaxRelativeDeviation())

	omega := h.Omega()
	fmt.Printf("converged in %d rounds\n", round)
	fmt.Printf("fast node 0 load: %.4f (target %.4f)\n", h.Values()[0], 4*omega)
	fmt.Printf("slow node 1 load: %.4f (target %.4f)\n", h.Values()[1], omega)
	fmt.Println("\nWith unit speeds this scheme is exactly the paper's Algorithm 1;")
	fmt.Println("the speed-weighted potential Φ_c plays the role Φ plays in Theorem 4.")
}
