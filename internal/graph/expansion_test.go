package graph

import (
	"math"
	"testing"
)

func TestEdgeExpansionCompleteGraph(t *testing.T) {
	// K_n: a cut with |S| = k has k(n−k) edges; minimizer is k = ⌊n/2⌋,
	// giving α = ⌈n/2⌉.
	g := Complete(6)
	got := EdgeExpansion(g)
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("α(K6) = %v, want 3", got)
	}
}

func TestEdgeExpansionCycle(t *testing.T) {
	// Cycle: best cut is an arc of n/2 nodes with 2 cut edges: α = 2/⌊n/2⌋.
	g := Cycle(8)
	got := EdgeExpansion(g)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("α(C8) = %v, want 0.5", got)
	}
}

func TestEdgeExpansionPath(t *testing.T) {
	// Path: cutting the middle edge gives 1/⌊n/2⌋.
	g := Path(6)
	got := EdgeExpansion(g)
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("α(P6) = %v, want 1/3", got)
	}
}

func TestEdgeExpansionBarbellBridge(t *testing.T) {
	// Barbell: the bridge cut separates the cliques, α = 1/k.
	g := Barbell(4)
	got := EdgeExpansion(g)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("α(barbell(4)) = %v, want 0.25", got)
	}
}

func TestEdgeExpansionDisconnected(t *testing.T) {
	b := NewBuilder("disc", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if got := EdgeExpansion(b.MustFinish()); got != 0 {
		t.Fatalf("disconnected α = %v, want 0", got)
	}
}

func TestEdgeExpansionGuards(t *testing.T) {
	if EdgeExpansion(NewBuilder("one", 1).MustFinish()) != 0 {
		t.Fatal("n<2 expansion must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized graph")
		}
	}()
	EdgeExpansion(Cycle(MaxExactExpansionN + 1))
}

func TestExpansionBoundsBracketExact(t *testing.T) {
	// Cheeger: λ₂/2 ≤ α ≤ sqrt(2δλ₂) for the size-based expansion variant,
	// verified against the exact enumeration on small graphs.
	cases := []struct {
		g       *G
		lambda2 float64
	}{
		{Cycle(8), CycleLambda2(8)},
		{Path(7), PathLambda2(7)},
		{Complete(6), 6},
		{Petersen(), 2},
		{Hypercube(3), 2},
	}
	for _, c := range cases {
		exact := EdgeExpansion(c.g)
		lo, hi := ExpansionBounds(c.g, c.lambda2)
		if exact < lo-1e-9 || exact > hi+1e-9 {
			t.Fatalf("%s: α=%v outside Cheeger [%v, %v]", c.g.Name(), exact, lo, hi)
		}
	}
}
