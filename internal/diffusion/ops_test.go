package diffusion

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

func TestOPSExactTerminationHypercube(t *testing.T) {
	// Q_d has d+1 distinct Laplacian eigenvalues {0, 2, 4, …, 2d}; OPS must
	// balance in exactly d rounds.
	for d := 2; d <= 5; d++ {
		g := graph.Hypercube(d)
		ops, err := NewOPS(g, workload.Continuous(workload.Spike, g.N(), 1e6, nil))
		if err != nil {
			t.Fatal(err)
		}
		if ops.Rounds() != d {
			t.Fatalf("Q%d: OPS rounds = %d, want %d", d, ops.Rounds(), d)
		}
		for !ops.Done() {
			ops.Step()
		}
		if phi := ops.Potential(); phi > 1e-12*1e12 {
			t.Fatalf("Q%d: residual Φ = %v after %d rounds", d, phi, ops.Rounds())
		}
	}
}

func TestOPSExactTerminationVariousGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.G{
		graph.Cycle(12),
		graph.Path(10),
		graph.Complete(9),
		graph.Star(11),
		graph.Torus(4, 4),
		graph.Petersen(),
	} {
		init := workload.Continuous(workload.Uniform, g.N(), 1e4, rng)
		ops, err := NewOPS(g, init)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		phi0 := ops.Potential()
		for !ops.Done() {
			ops.Step()
		}
		// Exact in theory; allow generous float slack relative to the start.
		if phi := ops.Potential(); phi > 1e-14*phi0+1e-10 {
			t.Fatalf("%s: residual Φ = %v (Φ⁰ = %v) after %d rounds", g.Name(), phi, phi0, ops.Rounds())
		}
	}
}

func TestOPSCompleteGraphOneRound(t *testing.T) {
	// K_n has one distinct nonzero eigenvalue (n), so OPS is one round.
	g := graph.Complete(8)
	ops, err := NewOPS(g, workload.Continuous(workload.Spike, 8, 800, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ops.Rounds() != 1 {
		t.Fatalf("K8 OPS rounds = %d, want 1", ops.Rounds())
	}
	ops.Step()
	if !ops.Done() {
		t.Fatal("should be done after one step")
	}
	if phi := ops.Potential(); phi > 1e-18 {
		t.Fatalf("K8 residual Φ = %v", phi)
	}
}

func TestOPSConservesLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Torus(4, 5)
	init := workload.Continuous(workload.Exponential, g.N(), 100, rng)
	ops, err := NewOPS(g, init)
	if err != nil {
		t.Fatal(err)
	}
	before := load.Sum(ops.Values())
	for !ops.Done() {
		ops.Step()
	}
	if math.Abs(load.Sum(ops.Values())-before) > 1e-8*(1+math.Abs(before)) {
		t.Fatalf("OPS must conserve load: %v → %v", before, load.Sum(ops.Values()))
	}
}

func TestOPSStepAfterDoneIsNoop(t *testing.T) {
	g := graph.Complete(5)
	ops, err := NewOPS(g, workload.Continuous(workload.Spike, 5, 50, nil))
	if err != nil {
		t.Fatal(err)
	}
	for !ops.Done() {
		ops.Step()
	}
	v := slices.Clone(ops.Values())
	ops.Step()
	if !slices.Equal(ops.Values(), v) {
		t.Fatal("post-Done step must not move load")
	}
}

func TestOPSRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder("disc", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := NewOPS(b.MustFinish(), []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

func TestOPSRejectsLengthMismatch(t *testing.T) {
	if _, err := NewOPS(graph.Cycle(4), []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestOPSStabilizedOrderingOnLargeCycle(t *testing.T) {
	// cycle(64) has 32 distinct nonzero eigenvalues with λ_max/λ₂ ≈ 415;
	// in ascending application order the final cancellation is destroyed
	// by intermediate growth (residual ~1e6·), while the Leja-stabilized
	// order keeps the residual at floating-point noise.
	g := graph.Cycle(64)
	ops, err := NewOPS(g, workload.Continuous(workload.Spike, g.N(), 1e6, nil))
	if err != nil {
		t.Fatal(err)
	}
	phi0 := ops.Potential()
	for !ops.Done() {
		ops.Step()
	}
	if rel := ops.Potential() / phi0; rel > 1e-15 {
		t.Fatalf("cycle(64): relative residual %v after stabilized OPS", rel)
	}
}

func TestOPSBeatsIterativeSchemesOnCycle(t *testing.T) {
	// OPS terminates in m = ⌊n/2⌋ rounds on the cycle; the first-order
	// scheme needs orders of magnitude more for the same residual.
	g := graph.Cycle(16)
	init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
	ops, err := NewOPS(g, init)
	if err != nil {
		t.Fatal(err)
	}
	for !ops.Done() {
		ops.Step()
	}
	fo := NewFirstOrder(g, init)
	for i := 0; i < ops.Rounds(); i++ {
		fo.Step()
	}
	if ops.Potential() >= fo.Potential() {
		t.Fatalf("OPS (Φ=%v) not ahead of first order (Φ=%v) at round %d",
			ops.Potential(), fo.Potential(), ops.Rounds())
	}
}
