package diffusion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func TestFirstOrderMatchesDiffusionMatrix(t *testing.T) {
	g := graph.Hypercube(3)
	rng := rand.New(rand.NewSource(1))
	init := workload.Continuous(workload.Uniform, g.N(), 10, rng)
	fo := NewFirstOrder(g, init)
	ms := NewMatrixStepper(spectral.DiffusionMatrix(g), init)
	for i := 0; i < 10; i++ {
		fo.Step()
		ms.Step()
	}
	if !matrix.Vector(fo.Values()).ApproxEqual(ms.Values(), 1e-9) {
		t.Fatal("sparse first-order disagrees with dense M·L")
	}
}

func TestFirstOrderConserves(t *testing.T) {
	g := graph.Torus(3, 4)
	rng := rand.New(rand.NewSource(2))
	init := workload.Continuous(workload.Exponential, g.N(), 20, rng)
	fo := NewFirstOrder(g, init)
	before := load.Sum(fo.Values())
	for i := 0; i < 50; i++ {
		fo.Step()
	}
	if math.Abs(load.Sum(fo.Values())-before) > 1e-8*(1+math.Abs(before)) {
		t.Fatal("first-order must conserve load")
	}
}

func TestFirstOrderConvergesAtGammaRate(t *testing.T) {
	// ‖e(t)‖₂ ≤ γᵗ‖e(0)‖₂ (Cybenko); check after 50 rounds with slack.
	g := graph.Cycle(10)
	gamma, err := spectral.Gamma(spectral.DiffusionMatrix(g))
	if err != nil {
		t.Fatal(err)
	}
	init := workload.Continuous(workload.Spike, g.N(), 100, nil)
	fo := NewFirstOrder(g, init)
	e0 := math.Sqrt(fo.Potential())
	T := 50
	for i := 0; i < T; i++ {
		fo.Step()
	}
	bound := math.Pow(gamma, float64(T)) * e0
	if got := math.Sqrt(fo.Potential()); got > bound*(1+1e-9) {
		t.Fatalf("‖e(T)‖ = %v exceeds γᵀ‖e(0)‖ = %v", got, bound)
	}
}

func TestSecondOrderBeatsFirstOrderOnCycle(t *testing.T) {
	// [15]: with optimal β the second-order scheme converges strictly
	// faster on slow-mixing topologies. Compare Φ after a fixed horizon.
	g := graph.Cycle(24)
	gamma, err := spectral.Gamma(spectral.DiffusionMatrix(g))
	if err != nil {
		t.Fatal(err)
	}
	init := workload.Continuous(workload.Spike, g.N(), 1000, nil)
	fo := NewFirstOrder(g, init)
	so := NewSecondOrder(g, init, OptimalBeta(gamma))
	T := 200
	for i := 0; i < T; i++ {
		fo.Step()
		so.Step()
	}
	if so.Potential() >= fo.Potential() {
		t.Fatalf("second order (Φ=%v) not faster than first order (Φ=%v)", so.Potential(), fo.Potential())
	}
}

func TestSecondOrderConserves(t *testing.T) {
	g := graph.Torus(4, 4)
	rng := rand.New(rand.NewSource(3))
	init := workload.Continuous(workload.Uniform, g.N(), 10, rng)
	so := NewSecondOrder(g, init, 1.5)
	before := load.Sum(so.Values())
	for i := 0; i < 60; i++ {
		so.Step()
	}
	if math.Abs(load.Sum(so.Values())-before) > 1e-8*(1+math.Abs(before)) {
		t.Fatal("second-order must conserve load")
	}
}

func TestOptimalBeta(t *testing.T) {
	if got := OptimalBeta(0); got != 1 {
		t.Fatalf("β*(0) = %v, want 1", got)
	}
	if got := OptimalBeta(1); got != 2 {
		t.Fatalf("β*(1) = %v, want 2", got)
	}
	mid := OptimalBeta(0.9)
	if mid <= 1 || mid >= 2 {
		t.Fatalf("β*(0.9) = %v out of (1,2)", mid)
	}
}

func TestSecondOrderBetaOneIsFirstOrder(t *testing.T) {
	g := graph.Hypercube(3)
	rng := rand.New(rand.NewSource(4))
	init := workload.Continuous(workload.Uniform, g.N(), 10, rng)
	fo := NewFirstOrder(g, init)
	so := NewSecondOrder(g, init, 1)
	for i := 0; i < 15; i++ {
		fo.Step()
		so.Step()
	}
	if !matrix.Vector(fo.Values()).ApproxEqual(so.Values(), 1e-9) {
		t.Fatal("β=1 second order must reduce to first order")
	}
}

func TestMatrixStepperValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrixStepper(spectral.DiffusionMatrix(graph.Cycle(4)), []float64{1})
}
