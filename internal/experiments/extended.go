package experiments

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/dimexchange"
	"repro/internal/flow"
	"repro/internal/matrix"
	"repro/internal/randpair"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("E15", E15FlowOptimality)
	register("E16", E16CommunicationCost)
	register("A4", A4OPSComparison)
	register("A5", A5SyncVsAsync)
}

// E15FlowOptimality verifies the [7] flow theorem on the paper's scheme:
// the cumulative per-edge flow routed by the continuous Algorithm 1
// converges to the ℓ₂-minimal balancing flow. Reports ‖realized‖₂,
// ‖optimal‖₂ and their relative deviation per topology.
func E15FlowOptimality(o Options) *trace.Table {
	t := trace.NewTable("E15 — Algorithm 1 routes the ℓ₂-minimal balancing flow ([7])",
		"graph", "‖realized‖₂", "‖optimal‖₂", "rel. deviation", "max edge (realized)", "max edge (optimal)")
	horizon := 50000
	if o.Quick {
		horizon = 5000
	}
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		g := suite[i]
		l := matrix.Vector(workload.Continuous(workload.Spike, g.N(), 1e6, nil))
		opt, err := flow.Optimal(g, l)
		if err != nil {
			return
		}
		acc := flow.NewAccumulator(g)
		cur := l.Clone()
		for round := 0; round < horizon; round++ {
			flows := diffusion.RoundFlows(g, cur)
			if len(flows) == 0 {
				break
			}
			for _, fl := range flows {
				_ = acc.Record(fl.Edge.U, fl.Edge.V, fl.Amount)
				cur[fl.Edge.U] -= fl.Amount
				cur[fl.Edge.V] += fl.Amount
			}
		}
		diff, err := acc.Flow.Sub(opt)
		if err != nil {
			return
		}
		rel := diff.L2() / (1 + opt.L2())
		rows[i] = row{g.Name(), acc.Flow.L2(), opt.L2(), rel, acc.Flow.MaxEdge(), opt.MaxEdge()}
	})
	emit(t, rows)
	t.Note("rel. deviation ≈ 0 on every row confirms Algorithm 1 realizes the optimal flow in the limit — an end-to-end check of stepper + Laplacian solver together.")
	return t
}

// E16CommunicationCost compares the communication bill of the schemes on
// identical instances: total load moved across edges (Σ|flow| aggregated
// over rounds), edge activations used, and rounds, all measured at the same
// convergence target. Diffusion wins rounds; the flow/activation columns
// show what it pays (or does not) for that.
func E16CommunicationCost(o Options) *trace.Table {
	t := trace.NewTable("E16 — communication cost to reach 1e-4·Φ⁰ (spike start)",
		"graph", "scheme", "rounds", "edge activations", "total load moved", "moved/optimal-L1")
	const eps = 1e-4
	horizon := 200000
	if o.Quick {
		horizon = 20000
	}
	suite := fixedSuite(o.Quick)
	// The optimal-flow L1 depends only on the topology (same spike start for
	// every scheme); each scheme cell solves it afresh, one Laplacian solve
	// on a suite graph, small next to the run it is compared with.
	schemes := []string{"diffusion", "dimexchange", "randpair"}
	rows := make([]row, len(suite)*len(schemes))
	o.sweep(len(rows), func(ci int, rng *rand.Rand) {
		g, scheme := suite[ci/len(schemes)], schemes[ci%len(schemes)]
		l := matrix.Vector(workload.Continuous(workload.Spike, g.N(), 1e6, nil))
		phi0 := potentialOf(l)
		target := eps * phi0
		optL1 := math.NaN()
		if opt, err := flow.Optimal(g, l); err == nil {
			optL1 = opt.L1()
		}

		var moved float64
		activations := 0
		rounds := 0
		switch scheme {
		case "diffusion":
			cur := l.Clone()
			for rounds = 0; rounds < horizon && potentialOf(cur) > target; rounds++ {
				for _, fl := range diffusion.RoundFlows(g, cur) {
					moved += math.Abs(fl.Amount)
					activations++
					cur[fl.Edge.U] -= fl.Amount
					cur[fl.Edge.V] += fl.Amount
				}
			}
		case "dimexchange":
			st := dimexchange.New(g, l, rng)
			for rounds = 0; rounds < horizon && st.Potential() > target; rounds++ {
				before := slices.Clone(st.Values())
				st.Step()
				for _, e := range st.LastMatching {
					d := math.Abs(before[e.U]-before[e.V]) / 2
					if d > 0 {
						moved += d
						activations++
					}
				}
			}
		case "randpair":
			// Not edge-constrained: moved/optimal is reported for scale only.
			st := randpair.New(l, rng)
			for rounds = 0; rounds < horizon && st.Potential() > target; rounds++ {
				before := slices.Clone(st.Values())
				st.Step()
				var roundMoved float64
				for i := range before {
					roundMoved += math.Abs(st.Values()[i] - before[i])
				}
				moved += roundMoved / 2 // each unit leaves one node and arrives at another
				activations += len(st.LastLinks)
			}
		}
		rows[ci] = row{g.Name(), scheme, rounds, activations, moved, moved / optL1}
	})
	emit(t, rows)
	t.Note("moved/optimal-L1 near 1 means the scheme wastes no transport; > 1 measures load sent back and forth. Random partners moves load off-topology, so its ratio is for scale only.")
	return t
}

// A4OPSComparison positions the OPS scheme of [7] against Algorithm 1 and
// the first-order scheme: rounds to 1e-9·Φ⁰ (OPS terminates exactly after
// m rounds; the iterative schemes approach asymptotically).
func A4OPSComparison(o Options) *trace.Table {
	t := trace.NewTable("A4 — ablation: OPS [7] vs iterative schemes (rounds to 1e-9·Φ⁰)",
		"graph", "OPS rounds (=m)", "OPS Φ end", "algorithm 1", "first order")
	const eps = 1e-9
	horizon := 1000000
	if o.Quick {
		horizon = 100000
	}
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, _ *rand.Rand) {
		g := suite[i]
		init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
		ops, err := diffusion.NewOPS(g, init)
		if err != nil {
			return
		}
		for !ops.Done() {
			ops.Step()
		}
		cfg := core.Config{Graph: g, Loads: init, Epsilon: eps}
		a1 := roundsTo(cfg, horizon)
		cfg.Algorithm = core.FirstOrder
		fo := roundsTo(cfg, horizon)
		rows[i] = row{g.Name(), ops.Rounds(), ops.Potential(), a1, fo}
	})
	emit(t, rows)
	t.Note("OPS is exact after m = #distinct nonzero Laplacian eigenvalues rounds in exact arithmetic; factors are applied in Leja-stabilized order, but for large m with extreme λ_max/λ₂ (the path) a small relative residual (~1e-6·Φ⁰) survives in floating point — the known reason [7] recommend OPS only for modest m. The local schemes need no spectral knowledge at all.")
	return t
}

// A5SyncVsAsync compares Algorithm 1 against the asynchronous edge-at-a-time
// balancer of [5] at equal edge-activation budgets (one synchronous round =
// m async ticks): rounds-equivalent to reach 1e-4·Φ⁰.
func A5SyncVsAsync(o Options) *trace.Table {
	t := trace.NewTable("A5 — ablation: synchronous Algorithm 1 vs asynchronous pairwise balancing (equal activation budgets)",
		"graph", "sync rounds", "async uniform (round-equivs)", "async roundrobin", "async/sync")
	const eps = 1e-4
	horizon := 200000
	if o.Quick {
		horizon = 20000
	}
	suite := fixedSuite(o.Quick)
	rows := make([]row, len(suite))
	o.sweep(len(rows), func(i int, rng *rand.Rand) {
		g := suite[i]
		init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
		sync := roundsTo(core.Config{Graph: g, Loads: init, Epsilon: eps}, horizon)
		asyncU := roundsToFraction(
			async.New(g, init, async.UniformRandom, rand.New(rand.NewSource(rng.Int63()))), eps, horizon)
		asyncR := roundsToFraction(
			async.New(g, init, async.RoundRobin, nil), eps, horizon)
		rows[i] = row{g.Name(), sync, asyncU, asyncR, float64(asyncU) / float64(sync)}
	})
	emit(t, rows)
	t.Note("async balances each activated pair exactly (vs Algorithm 1's conservative 1/4 factor), so at equal budgets it is usually ahead — the cost is losing the synchronous-round structure the paper's bounds are stated in.")
	return t
}
