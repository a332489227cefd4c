// Cross-cutting integration tests: exercise the public core API across
// every algorithm × topology × mode combination and check the global
// invariants that no single package test can see end to end.
package repro

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func integrationTopologies() []*graph.G {
	return []*graph.G{
		graph.Cycle(24),
		graph.Torus(4, 5),
		graph.Hypercube(4),
		graph.Star(20),
		graph.Path(20),
	}
}

func TestAllAlgorithmsConvergeContinuous(t *testing.T) {
	algorithms := []core.Algorithm{
		core.Diffusion, core.DimensionExchange, core.RandomPartners,
		core.FirstOrder, core.SecondOrder,
	}
	for _, g := range integrationTopologies() {
		for _, alg := range algorithms {
			res, err := core.Balance(core.Config{
				Graph:     g,
				Algorithm: alg,
				Mode:      core.Continuous,
				Loads:     core.SpikeLoads(g.N(), 1e6),
				Epsilon:   1e-3,
				Seed:      42,
				MaxRounds: 2_000_000,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), alg, err)
			}
			if !res.Converged {
				t.Fatalf("%s/%v: did not converge in %d rounds (Φ %v → %v)",
					g.Name(), alg, res.Rounds, res.PhiStart, res.PhiEnd)
			}
		}
	}
}

func TestAllAlgorithmsDiscreteConverge(t *testing.T) {
	algorithms := []core.Algorithm{core.Diffusion, core.DimensionExchange, core.RandomPartners}
	for _, g := range integrationTopologies() {
		for _, alg := range algorithms {
			res, err := core.Balance(core.Config{
				Graph:     g,
				Algorithm: alg,
				Mode:      core.Discrete,
				Loads:     core.SpikeLoads(g.N(), 1e8),
				Epsilon:   1e-6,
				Seed:      7,
				MaxRounds: 5_000_000,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), alg, err)
			}
			if !res.Converged {
				t.Fatalf("%s/%v: discrete run did not reach its target (Φ %v → %v in %d rounds)",
					g.Name(), alg, res.PhiStart, res.PhiEnd, res.Rounds)
			}
		}
	}
}

func TestRandomizedAlgorithmsDeterministicGivenSeed(t *testing.T) {
	g := graph.Torus(4, 4)
	for _, alg := range []core.Algorithm{core.DimensionExchange, core.RandomPartners} {
		run := func() core.Result {
			res, err := core.Balance(core.Config{
				Graph:     g,
				Algorithm: alg,
				Loads:     core.SpikeLoads(g.N(), 1e5),
				Epsilon:   1e-3,
				Seed:      99,
				MaxRounds: 100000,
			})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			return res
		}
		a, b := run(), run()
		if a.Rounds != b.Rounds || a.PhiEnd != b.PhiEnd {
			t.Fatalf("%v: same seed produced different runs (%d/%v vs %d/%v)",
				alg, a.Rounds, a.PhiEnd, b.Rounds, b.PhiEnd)
		}
	}
}

func TestTheoremBoundsRespectedAcrossSuite(t *testing.T) {
	// Every Diffusion run must finish within its theorem bound — the
	// end-to-end form of the E3/E4 experiments through the public API.
	for _, g := range integrationTopologies() {
		for _, mode := range []core.Mode{core.Continuous, core.Discrete} {
			res, err := core.Balance(core.Config{
				Graph:     g,
				Algorithm: core.Diffusion,
				Mode:      mode,
				Loads:     core.SpikeLoads(g.N(), 1e8),
				Epsilon:   1e-4,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), mode, err)
			}
			if res.Bound > 0 && float64(res.Rounds) > res.Bound {
				t.Fatalf("%s/%v: %d rounds exceeds %s bound %v",
					g.Name(), mode, res.Rounds, res.BoundName, res.Bound)
			}
		}
	}
}

func TestLambda2SolverAgreement(t *testing.T) {
	// All independent λ₂ paths must agree: dense QL, Jacobi (via full
	// spectrum), implicit Lanczos, inverse-power CG, and the closed form.
	for _, g := range []*graph.G{graph.Cycle(40), graph.Torus(5, 5), graph.Hypercube(5)} {
		dense := spectral.MustLambda2(g)
		cf, ok := g.ClosedForm()
		if !ok {
			t.Fatalf("%s: no closed form", g.Name())
		}
		lan, _, ok, err := spectral.LaplacianExtremal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s: Lanczos did not converge", g.Name())
		}
		inv, err := spectral.Lambda2InversePower(g)
		if err != nil {
			t.Fatal(err)
		}
		jac, err := spectral.JacobiEigen(g.Laplacian())
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]float64{
			"closed": cf.Lambda2, "lanczos": lan, "invpower": inv, "jacobi": jac[1],
		} {
			if math.Abs(v-dense) > 1e-6*(1+dense) {
				t.Fatalf("%s: %s λ₂ %v disagrees with dense %v", g.Name(), name, v, dense)
			}
		}
	}
}

func TestWorkloadsBalanceToSameAverage(t *testing.T) {
	// Whatever the initial distribution, continuous diffusion must settle
	// on the same per-node average (conservation + convergence together).
	g := graph.Torus(4, 4)
	for _, k := range workload.AllKinds() {
		loads := workload.Continuous(k, g.N(), 1000, newRand(5))
		var total float64
		for _, v := range loads {
			total += v
		}
		res, err := core.Balance(core.Config{
			Graph:     g,
			Algorithm: core.Diffusion,
			Loads:     loads,
			Epsilon:   1e-9,
			MaxRounds: 100000,
		})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.PhiStart == 0 {
			continue // already balanced (flat workload)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", k)
		}
		wantAvg := total / float64(g.N())
		gotDev := math.Sqrt(res.PhiEnd / float64(g.N()))
		if gotDev > 1e-3*(1+wantAvg) {
			t.Fatalf("%v: rms deviation %v from average %v", k, gotDev, wantAvg)
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestBalanceGridEndToEnd(t *testing.T) {
	// One grid invocation sweeps the whole (topology × algorithm × mode ×
	// workload × seed) cross product through the batch engine — the
	// end-to-end form of what the per-algorithm tests above check one
	// configuration at a time. The aggregated output must not depend on the
	// worker count.
	spec := batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube", "star"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Seeds:      []int64{1, 2},
		N:          20,
		Workers:    1,
	}
	rep, err := core.GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 3 * 2 * 2 * 2; len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	if rep.Failed() != 0 {
		t.Fatalf("%d grid units failed", rep.Failed())
	}
	for _, c := range rep.Cells {
		if !c.Converged {
			t.Fatalf("%s did not converge", c.Key())
		}
		if c.Bound > 0 && float64(c.Rounds) > c.Bound {
			t.Fatalf("%s: %d rounds exceeds %s bound %v", c.Key(), c.Rounds, c.BoundName, c.Bound)
		}
	}

	spec.Workers = 8
	rep8, err := core.GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b8 bytes.Buffer
	if err := rep.RenderCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rep8.RenderCSV(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatal("grid output differs between workers=1 and workers=8")
	}
}
