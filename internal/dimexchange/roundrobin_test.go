package dimexchange

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

func TestEdgeColoringProper(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(9), graph.Torus(4, 4), graph.Complete(7), graph.Star(10), graph.Petersen()} {
		colors, num := graph.EdgeColoring(g)
		if num > 2*g.MaxDegree()-1 && g.M() > 0 {
			t.Fatalf("%s: %d colors exceeds 2δ−1 = %d", g.Name(), num, 2*g.MaxDegree()-1)
		}
		// No two edges at a node share a color.
		at := make(map[[2]int]bool)
		for k, e := range g.Edges() {
			for _, v := range []int{e.U, e.V} {
				key := [2]int{v, colors[k]}
				if at[key] {
					t.Fatalf("%s: node %d has two color-%d edges", g.Name(), v, colors[k])
				}
				at[key] = true
			}
		}
	}
}

func TestColorClassesAreMatchings(t *testing.T) {
	g := graph.Torus(4, 5)
	colors, num := graph.EdgeColoring(g)
	for _, class := range graph.ColorClasses(g, colors, num) {
		if !isMatching(g, class) {
			t.Fatal("color class is not a matching")
		}
	}
}

func TestHypercubeDimensionClasses(t *testing.T) {
	d := 4
	classes := graph.HypercubeDimensionClasses(d)
	if len(classes) != d {
		t.Fatalf("%d classes, want %d", len(classes), d)
	}
	g := graph.Hypercube(d)
	total := 0
	for _, class := range classes {
		if !isMatching(g, class) {
			t.Fatal("dimension class is not a matching")
		}
		if len(class) != g.N()/2 {
			t.Fatalf("dimension class has %d edges, want %d (perfect matching)", len(class), g.N()/2)
		}
		total += len(class)
	}
	if total != g.M() {
		t.Fatalf("classes cover %d edges, graph has %d", total, g.M())
	}
}

func TestHypercubeSweepBalancesPerfectly(t *testing.T) {
	// The classic [3] result: one sweep of all d dimensions balances any
	// continuous distribution on the hypercube exactly.
	d := 5
	g := graph.Hypercube(d)
	rng := rand.New(rand.NewSource(1))
	init := workload.Continuous(workload.Uniform, g.N(), 1000, rng)
	rr := NewRoundRobinWithClasses(g, init, graph.HypercubeDimensionClasses(d))
	for k := 0; k < d; k++ {
		rr.Step()
	}
	if phi := rr.Potential(); phi > 1e-15*1e6 {
		t.Fatalf("Φ = %v after one full dimension sweep, want 0", phi)
	}
}

func TestRoundRobinConservesAndConverges(t *testing.T) {
	g := graph.Torus(4, 4)
	init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
	rr := NewRoundRobin(g, init)
	before := load.Sum(rr.Values())
	phi0 := rr.Potential()
	for k := 0; k < 500; k++ {
		rr.Step()
	}
	if math.Abs(load.Sum(rr.Values())-before) > 1e-8*(1+before) {
		t.Fatal("round robin must conserve")
	}
	if rr.Potential() > 1e-9*phi0 {
		t.Fatalf("Φ %v after 500 rounds", rr.Potential())
	}
}

func TestRoundRobinDeterministic(t *testing.T) {
	g := graph.Cycle(10)
	init := workload.Continuous(workload.Spike, g.N(), 100, nil)
	a := NewRoundRobin(g, init)
	b := NewRoundRobin(g, init)
	for k := 0; k < 30; k++ {
		a.Step()
		b.Step()
	}
	if !slices.Equal(a.Values(), b.Values()) {
		t.Fatal("deterministic schedule must reproduce exactly")
	}
}

func TestRoundRobinDiscreteConserves(t *testing.T) {
	g := graph.Hypercube(4)
	rng := rand.New(rand.NewSource(2))
	init := workload.Discrete(workload.PowerLaw, g.N(), 500_000, rng)
	rr := NewRoundRobin(g, init)
	before := load.Sum(rr.Values())
	for k := 0; k < 300; k++ {
		rr.Step()
		for node, v := range rr.Values() {
			if v < 0 {
				t.Fatalf("node %d negative", node)
			}
		}
	}
	if load.Sum(rr.Values()) != before {
		t.Fatal("tokens not conserved")
	}
}

func TestRoundRobinDiscreteReachesSmallResidual(t *testing.T) {
	g := graph.Hypercube(4)
	init := workload.Discrete(workload.Spike, g.N(), 1_600_000, nil)
	rr := NewRoundRobin(g, init)
	for k := 0; k < 2000; k++ {
		rr.Step()
	}
	// Discrete pairwise averaging on the hypercube gets within a few
	// tokens per node of perfect balance.
	if k := load.Discrepancy(rr.Values()); k > int64(g.MaxDegree())+1 {
		t.Fatalf("discrepancy %d", k)
	}
}

func TestRoundRobinFasterThanRandomMatchingOnHypercube(t *testing.T) {
	// The deterministic sweep uses every edge exactly once per d rounds;
	// random matchings activate each edge only with probability ~1/δ² per
	// round, so at equal round counts the deterministic schedule must be
	// far ahead on the hypercube.
	g := graph.Hypercube(5)
	init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
	rr := NewRoundRobinWithClasses(g, init, graph.HypercubeDimensionClasses(5))
	rm := New(g, init, rand.New(rand.NewSource(3)))
	for k := 0; k < 10; k++ {
		rr.Step()
		rm.Step()
	}
	if rr.Potential() >= rm.Potential() {
		t.Fatalf("round robin (Φ=%v) not ahead of random matching (Φ=%v)", rr.Potential(), rm.Potential())
	}
}
