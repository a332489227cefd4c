package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// newSystem validates cfg's structural fields and constructs the configured
// stepper without a Session around it, for the tests that drive bare Step
// calls themselves (the kernel checksum, round-worker and million-node
// tests). The stepper starts from a copy of cfg.Loads; Epsilon, MaxRounds
// and Scenario are ignored, and no spectral bound is computed (SecondOrder
// still pays for its β through the shared γ cache).
func newSystem(cfg Config) (System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return buildSystemOn(cfg, cfg.Graph, cfg.Loads, rand.New(rand.NewSource(cfg.Seed)))
}

func TestBalanceDiffusionContinuous(t *testing.T) {
	g := graph.Torus(4, 4)
	res, err := Balance(Config{
		Graph:     g,
		Algorithm: Diffusion,
		Mode:      Continuous,
		Loads:     SpikeLoads(g.N(), 1e6),
		Epsilon:   1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.PhiEnd > 1e-3*res.PhiStart {
		t.Fatalf("Φ end %v above target", res.PhiEnd)
	}
	if res.BoundName != "Theorem 4" || res.Bound <= 0 {
		t.Fatalf("bound: %q %v", res.BoundName, res.Bound)
	}
	if float64(res.Rounds) > res.Bound {
		t.Fatalf("rounds %d exceed Theorem 4 bound %v", res.Rounds, res.Bound)
	}
	if res.Lambda2 <= 0 || res.Delta != 4 {
		t.Fatalf("spectral fields: λ₂=%v δ=%d", res.Lambda2, res.Delta)
	}
	if len(res.Trace) != res.Rounds+1 {
		t.Fatal("trace length mismatch")
	}
}

func TestBalanceDiffusionDiscreteStopsAtThreshold(t *testing.T) {
	g := graph.Cycle(16)
	res, err := Balance(Config{
		Graph:     g,
		Algorithm: Diffusion,
		Mode:      Discrete,
		Loads:     SpikeLoads(g.N(), 1e7),
		Epsilon:   1e-9, // far below the threshold: the threshold must win
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not reach discrete threshold: %+v", res)
	}
	if res.BoundName != "Theorem 6" {
		t.Fatalf("bound name %q", res.BoundName)
	}
}

func TestBalanceDimensionExchange(t *testing.T) {
	g := graph.Hypercube(4)
	res, err := Balance(Config{
		Graph:     g,
		Algorithm: DimensionExchange,
		Loads:     SpikeLoads(g.N(), 1e5),
		Epsilon:   1e-2,
		Seed:      7,
		MaxRounds: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("dimension exchange did not converge: %+v", res)
	}
}

func TestBalanceRandomPartnersContinuous(t *testing.T) {
	g := graph.Cycle(64) // topology irrelevant; supplies n
	res, err := Balance(Config{
		Graph:     g,
		Algorithm: RandomPartners,
		Loads:     SpikeLoads(g.N(), 1e6),
		Epsilon:   1e-4,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("random partners did not converge: %+v", res)
	}
	if !strings.HasPrefix(res.BoundName, "Theorem 12") {
		t.Fatalf("bound name %q", res.BoundName)
	}
	if res.Lambda2 != 0 {
		t.Fatal("random partners must not compute λ₂")
	}
}

func TestBalanceRandomPartnersDiscrete(t *testing.T) {
	g := graph.Cycle(64)
	res, err := Balance(Config{
		Graph:     g,
		Algorithm: RandomPartners,
		Mode:      Discrete,
		Loads:     SpikeLoads(g.N(), 64*100000),
		Epsilon:   1e-9,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("discrete random partners: %+v", res)
	}
	if !strings.HasPrefix(res.BoundName, "Theorem 14") {
		t.Fatalf("bound name %q", res.BoundName)
	}
}

func TestBalanceRoundRobinBothModes(t *testing.T) {
	g := graph.Hypercube(4)
	for _, mode := range []Mode{Continuous, Discrete} {
		res, err := Balance(Config{
			Graph:     g,
			Algorithm: RoundRobinExchange,
			Mode:      mode,
			Loads:     SpikeLoads(g.N(), 1.6e6),
			Epsilon:   1e-3,
			MaxRounds: 100000,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%v: round robin did not converge: %+v", mode, res)
		}
	}
}

func TestBalanceFirstAndSecondOrder(t *testing.T) {
	g := graph.Cycle(16)
	for _, alg := range []Algorithm{FirstOrder, SecondOrder} {
		res, err := Balance(Config{
			Graph:     g,
			Algorithm: alg,
			Loads:     SpikeLoads(g.N(), 1e4),
			Epsilon:   1e-2,
			MaxRounds: 100000,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", alg)
		}
	}
}

func TestBalanceWorkersEquivalent(t *testing.T) {
	g := graph.Torus(5, 5)
	loads := workload.Continuous(workload.LinearRamp, g.N(), 1000, nil)
	base := Config{Graph: g, Algorithm: Diffusion, Loads: loads, Epsilon: 1e-3}
	r1, err := Balance(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 8
	r2, err := Balance(par)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rounds != r2.Rounds || math.Abs(r1.PhiEnd-r2.PhiEnd) > 1e-12 {
		t.Fatal("worker count changed the result")
	}
}

func TestBalanceValidation(t *testing.T) {
	g := graph.Cycle(4)
	cases := []Config{
		{},                              // no graph
		{Graph: g, Loads: []float64{1}}, // length mismatch
		{Graph: g, Loads: []float64{1, 2, 3, math.NaN()}},
		{Graph: g, Loads: []float64{1, 2, 3, -4}},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Epsilon: 2},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Epsilon: math.NaN()},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Epsilon: math.Inf(1)},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Epsilon: math.Inf(-1)},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Epsilon: -0.5},
		{Graph: g, Loads: []float64{1, 2, 3, 4}, Algorithm: FirstOrder, Mode: Discrete},
	}
	for i, cfg := range cases {
		if _, err := Balance(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{Diffusion, DimensionExchange, RandomPartners, FirstOrder, SecondOrder, RoundRobinExchange} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestModeAndAlgorithmStrings(t *testing.T) {
	if Continuous.String() != "continuous" || Discrete.String() != "discrete" {
		t.Fatal("mode names")
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Fatal("unknown algorithm formatting")
	}
}

func TestSpikeLoads(t *testing.T) {
	v := SpikeLoads(3, 9)
	if v[0] != 9 || v[1] != 0 || v[2] != 0 {
		t.Fatalf("spike %v", v)
	}
	if len(SpikeLoads(0, 9)) != 0 {
		t.Fatal("n=0")
	}
}
