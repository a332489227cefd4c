package experiments

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/speccache"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("E19", E19Interconnects)
}

// E19Interconnects stresses Theorem 4 and Theorem 6 on interconnect
// families beyond the paper's usual suspects: 3-D torus, cube-connected
// cycles, wrapped butterfly, Watts–Strogatz small world, random geometric
// graph and a random 4-regular expander. λ₂ comes from the numeric
// solvers: none of these families has a closed form in the spectral
// dispatch.
func E19Interconnects(o Options) *trace.Table {
	t := trace.NewTable("E19 — Theorems 4 & 6 on modern interconnects (spike start, ε = 1e-4)",
		"graph", "n", "δ", "λ₂", "cont. rounds", "T4 bound", "T4 ratio", "disc. rounds", "T6 bound", "T6 ratio")
	rng := rand.New(rand.NewSource(o.seed()))
	var suite []*graph.G
	if o.Quick {
		suite = []*graph.G{
			graph.Torus3D(3, 3, 3),
			graph.CubeConnectedCycles(3),
		}
	} else {
		suite = []*graph.G{
			graph.Torus3D(4, 4, 4),
			graph.CubeConnectedCycles(4),
			graph.Butterfly(4),
			graph.SmallWorld(64, 2, 0.1, rng),
			connectedRGG(96, rng),
			graph.RandomRegular(64, 4, rng),
		}
	}
	const eps = 1e-4
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		g := suite[i]
		lambda2 := speccache.MustLambda2(g)
		if lambda2 <= 0 {
			return
		}
		// Continuous / Theorem 4.
		init := workload.Continuous(workload.Spike, g.N(), 1e9, nil)
		contBound := diffusion.ContinuousBound(g, lambda2, eps)
		contRounds := roundsTo(core.Config{Graph: g, Loads: init, Epsilon: eps}, int(contBound)+1)

		// Discrete / Theorem 6.
		res, _ := discreteToThreshold(g, lambda2)
		discRatio := math.NaN()
		if res.Bound > 0 {
			discRatio = float64(res.Rounds) / res.Bound
		}
		rows[i] = row{g.Name(), g.N(), g.MaxDegree(), lambda2,
			contRounds, contBound, float64(contRounds) / contBound,
			res.Rounds, res.Bound, discRatio}
	})
	emit(t, rows)
	t.Note("both ratio columns must stay ≤ 1: the paper's bounds are stated for arbitrary connected topologies, and these families exercise λ₂ values the closed-form suite does not reach.")
	return t
}

// connectedRGG draws random geometric graphs until one is connected.
func connectedRGG(n int, rng *rand.Rand) *graph.G {
	r := 2 * graph.ConnectivityRadius(n)
	for i := 0; i < 50; i++ {
		if g := graph.RandomGeometric(n, r, rng); g.IsConnected() {
			return g
		}
	}
	// Fall back to a denser radius; connectivity is then near-certain.
	return graph.RandomGeometric(n, 3*r, rng)
}
