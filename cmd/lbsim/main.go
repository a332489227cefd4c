// Command lbsim runs one load-balancing instance and prints its trajectory.
//
// Usage:
//
//	lbsim -topo torus -n 64 -alg diffusion -mode continuous \
//	      -workload spike -total 1e6 -eps 1e-4 -seed 1
//
// Topologies: path, cycle, torus (square), hypercube (n rounded to 2^d),
// debruijn, complete, star, tree, random-regular, petersen.
// Algorithms: diffusion (Algorithm 1), dimexchange ([12]), randpair
// (Algorithm 2), firstorder ([3]), secondorder ([15]).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/topoparse"
	"repro/internal/workload"
)

func main() {
	var (
		topo    = flag.String("topo", "torus", "topology family")
		n       = flag.Int("n", 64, "approximate node count")
		algName = flag.String("alg", "diffusion", "algorithm: diffusion|dimexchange|randpair|firstorder|secondorder|roundrobin")
		mode    = flag.String("mode", "continuous", "continuous|discrete")
		wl      = flag.String("workload", "spike", "spike|uniform|bimodal|exponential|powerlaw|ramp|flat")
		total   = flag.Float64("total", 1e6, "total load")
		eps     = flag.Float64("eps", 1e-4, "stop when Φ ≤ ε·Φ⁰ (or the discrete threshold)")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 1, "parallel round executor workers (diffusion)")
		every   = flag.Int("every", 0, "print Φ every k rounds (0: summary only)")
	)
	flag.Parse()

	g, err := topoparse.Build(*topo, *n, *seed)
	if err != nil {
		fatal(err)
	}
	kind, err := workload.ParseKind(*wl)
	if err != nil {
		fatal(err)
	}
	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	m := core.Continuous
	if *mode == "discrete" {
		m = core.Discrete
	} else if *mode != "continuous" {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	rng := rand.New(rand.NewSource(*seed))
	loads := workload.Continuous(kind, g.N(), *total, rng)
	if kind == workload.Spike {
		loads = core.SpikeLoads(g.N(), *total)
	}

	res, err := core.Balance(core.Config{
		Graph:     g,
		Algorithm: alg,
		Mode:      m,
		Loads:     loads,
		Epsilon:   *eps,
		Seed:      *seed,
		Workers:   *workers,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("topology   : %s\n", g)
	fmt.Printf("algorithm  : %s (%s)\n", res.Algorithm, res.Mode)
	fmt.Printf("workload   : %s, total %.4g\n", kind, *total)
	if res.Lambda2 > 0 {
		fmt.Printf("spectra    : λ₂ = %.6g, δ = %d\n", res.Lambda2, res.Delta)
	}
	fmt.Printf("Φ          : %.6g → %.6g (ε target %.4g)\n", res.PhiStart, res.PhiEnd, *eps)
	fmt.Printf("rounds     : %d (converged: %v)\n", res.Rounds, res.Converged)
	if res.Bound > 0 {
		fmt.Printf("paper bound: %.1f rounds (%s) — measured/bound = %.3f\n",
			res.Bound, res.BoundName, float64(res.Rounds)/res.Bound)
	}
	if *every > 0 {
		fmt.Println("\nround,phi")
		for t, phi := range res.Trace {
			if t%*every == 0 || t == len(res.Trace)-1 {
				fmt.Printf("%d,%.6g\n", t, phi)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbsim:", err)
	os.Exit(1)
}
