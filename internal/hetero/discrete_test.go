package hetero

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

func TestDiscreteConservesTokens(t *testing.T) {
	g := graph.Torus(4, 4)
	rng := rand.New(rand.NewSource(1))
	init := workload.Discrete(workload.Spike, g.N(), 1_000_000, nil)
	speeds := make([]float64, g.N())
	for i := range speeds {
		speeds[i] = 0.5 + 3*rng.Float64()
	}
	h, err := New(g, init, speeds)
	if err != nil {
		t.Fatal(err)
	}
	before := load.Sum(h.Values())
	for k := 0; k < 500; k++ {
		h.Step()
	}
	if load.Sum(h.Values()) != before {
		t.Fatalf("tokens not conserved: %d → %d", before, load.Sum(h.Values()))
	}
}

func TestDiscreteApproachesProportionalShare(t *testing.T) {
	g := graph.Hypercube(4)
	speeds := make([]float64, g.N())
	for i := range speeds {
		if i%2 == 0 {
			speeds[i] = 3
		} else {
			speeds[i] = 1
		}
	}
	init := workload.Discrete(workload.Spike, g.N(), 1_600_000, nil)
	h, err := New(g, init, speeds)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20000 && !fixedPoint(h); k++ {
		h.Step()
	}
	if !fixedPoint(h) {
		t.Fatal("no fixed point reached")
	}
	// At the fixed point, normalized loads should sit close to ω: each
	// stalled edge has |ℓᵢ/cᵢ − ℓⱼ/cⱼ| < 4·max d/min c, so path-summing
	// gives a diameter-scaled deviation bound.
	omega := h.Omega()
	maxDev := 0.0
	for i, c := range h.Speeds {
		if d := math.Abs(float64(h.Values()[i])/c - omega); d > maxDev {
			maxDev = d
		}
	}
	bound := float64(graph.Diameter(g)) * 4 * float64(g.MaxDegree())
	if maxDev > bound {
		t.Fatalf("normalized deviation %v above diameter bound %v", maxDev, bound)
	}
	// The fast nodes must carry clearly more than the slow ones.
	if h.Values()[0] < 2*h.Values()[1] {
		t.Fatalf("fast node %d vs slow node %d — proportionality lost", h.Values()[0], h.Values()[1])
	}
}

func TestDiscreteUnitSpeedsMatchAlgorithm1Residual(t *testing.T) {
	// Unit speeds: the transfer rule coincides with discrete Algorithm 1.
	g := graph.Cycle(12)
	init := workload.Discrete(workload.Spike, g.N(), 120_000, nil)
	h, err := New(g, init, uniformSpeeds(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20000 && !fixedPoint(h); k++ {
		h.Step()
	}
	// The homogeneous Φ_c equals Φ at unit speeds.
	if h.Potential() != load.Potential(h.Values()) {
		t.Fatalf("unit-speed Φ_c %v != Φ %v", h.Potential(), load.Potential(h.Values()))
	}
}

func TestDiscreteValidation(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := New(g, []int64{1}, uniformSpeeds(4)); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := New(g, []int64{1, 1, 1, 1}, []float64{1, 1, 0, 1}); err == nil {
		t.Fatal("zero speed must error")
	}
}

// Property: conservation and nonnegative potentials across random
// instances.
func TestDiscreteConservationProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(12)
		g := graph.ErdosRenyi(n, 0.5, r)
		init := workload.Discrete(workload.Uniform, n, int64(1000+r.Intn(100000)), r)
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = 0.5 + 2*r.Float64()
		}
		h, err := New(g, init, speeds)
		if err != nil {
			return false
		}
		before := load.Sum(h.Values())
		for k := 0; k < 8; k++ {
			h.Step()
			if h.Potential() < 0 {
				return false
			}
		}
		return load.Sum(h.Values()) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
