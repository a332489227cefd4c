package spectral

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestLambda2InversePowerMatchesDense(t *testing.T) {
	cases := []*graph.G{
		graph.Path(40),
		graph.Cycle(50),
		graph.Torus(5, 6),
		graph.Hypercube(5),
		graph.Barbell(8),
		graph.Star(30),
		graph.BinaryTree(5),
	}
	for _, g := range cases {
		dense, err := Lambda2(g)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := Lambda2InversePower(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if math.Abs(dense-inv) > 1e-6*(1+dense) {
			t.Fatalf("%s: dense λ₂ %v vs inverse-power %v", g.Name(), dense, inv)
		}
	}
}

func TestLambda2InversePowerLargePath(t *testing.T) {
	n := 1500
	got, err := Lambda2InversePower(graph.Path(n))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.PathLambda2(n)
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("path(%d): λ₂ = %v, want %v", n, got, want)
	}
}

func TestLambda2InversePowerRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder("disc", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := Lambda2InversePower(b.MustFinish()); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

func TestLambda2InversePowerDeterministic(t *testing.T) {
	g := graph.Torus(8, 8)
	a, err := Lambda2InversePower(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lambda2InversePower(g)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs must agree: %v vs %v", a, b)
	}
}
