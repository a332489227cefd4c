package markov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func TestCoupleDeviationBounded(t *testing.T) {
	// The discrete trajectory must stay near the idealized one; [16] bound
	// the gap via the local divergence. On a torus with a large spike the
	// deviation should stay well below the initial discrepancy.
	g := graph.Torus(4, 4)
	init := workload.Discrete(workload.Spike, g.N(), 1_600_000, nil)
	run := Couple(g, init, 200)
	if run.MaxDeviation <= 0 {
		t.Fatal("rounding must create some deviation")
	}
	if run.MaxDeviation > 1_600_000/10 {
		t.Fatalf("deviation %v is implausibly large", run.MaxDeviation)
	}
	if run.LocalDivergence <= 0 {
		t.Fatal("divergence must accumulate")
	}
	if run.DiscretePhi < 0 || run.IdealPhi < 0 {
		t.Fatal("potentials must be nonnegative")
	}
	// The idealized chain converges to (nearly) zero potential; the
	// discrete one to a bounded residual above it.
	if run.IdealPhi > 1 {
		t.Fatalf("idealized chain should be almost balanced, Φ=%v", run.IdealPhi)
	}
}

func TestCoupleZeroRounds(t *testing.T) {
	g := graph.Cycle(6)
	init := workload.Discrete(workload.Uniform, 6, 600, rand.New(rand.NewSource(1)))
	run := Couple(g, init, 0)
	if run.LocalDivergence != 0 || run.MaxDeviation != 0 {
		t.Fatal("no rounds, no divergence")
	}
}

func TestCoupleBalancedStartStaysCoupled(t *testing.T) {
	// Perfectly balanced start: both systems are at a fixed point.
	g := graph.Hypercube(3)
	init := make([]int64, g.N())
	for i := range init {
		init[i] = 100
	}
	run := Couple(g, init, 50)
	if run.MaxDeviation != 0 || run.LocalDivergence != 0 {
		t.Fatalf("balanced start diverged: %+v", run)
	}
}

func TestPsiBoundShapeGrowsSlowly(t *testing.T) {
	// For the hypercube family, δ = log₂ n and µ is constant-ish; the
	// bound shape must grow like polylog(n).
	for d := 3; d <= 6; d++ {
		g := graph.Hypercube(d)
		mu, err := spectral.EigenGap(spectral.DiffusionMatrix(g))
		if err != nil {
			t.Fatal(err)
		}
		if v := PsiBoundShape(g, mu); v <= 0 || math.IsInf(v, 1) {
			t.Fatalf("Q%d: Ψ bound shape %v", d, v)
		}
	}
	if !math.IsInf(PsiBoundShape(graph.Cycle(4), 0), 1) {
		t.Fatal("µ=0 must give +Inf")
	}
}

func TestPsiMeasuredVsBoundShape(t *testing.T) {
	// The measured divergence normalized by the [16] bound shape should be
	// O(K): here we only check it is finite and positive for a real run.
	g := graph.DeBruijn(5)
	init := workload.Discrete(workload.Spike, g.N(), 320_000, nil)
	run := Couple(g, init, 100)
	mu, err := spectral.EigenGap(spectral.DiffusionMatrix(g))
	if err != nil {
		t.Fatal(err)
	}
	shape := PsiBoundShape(g, mu)
	ratio := run.LocalDivergence / shape
	if math.IsNaN(ratio) || ratio <= 0 {
		t.Fatalf("ratio %v", ratio)
	}
}
