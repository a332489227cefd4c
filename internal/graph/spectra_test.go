package graph

import (
	"math"
	"testing"
)

func TestPathLambda2SmallCases(t *testing.T) {
	// path(2) is a single edge: Laplacian [[1,-1],[-1,1]], λ₂ = 2.
	if got := PathLambda2(2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("path(2) λ₂ = %v", got)
	}
	if PathLambda2(1) != 0 {
		t.Fatal("path(1) λ₂ must be 0")
	}
}

func TestCycleLambda2Monotone(t *testing.T) {
	// λ₂ decreases as the cycle grows.
	prev := math.Inf(1)
	for n := 3; n < 40; n++ {
		v := CycleLambda2(n)
		if v >= prev {
			t.Fatalf("cycle λ₂ not decreasing at n=%d: %v >= %v", n, v, prev)
		}
		prev = v
	}
}

func TestSpectraConventions(t *testing.T) {
	if CompleteLambda2(7) != 7 {
		t.Fatal("K7 λ₂ must be 7")
	}
	if StarLambda2(10) != 1 {
		t.Fatal("star λ₂ must be 1")
	}
	if StarLambda2(2) != 2 {
		t.Fatal("star(2) = K2, λ₂ = 2")
	}
	if HypercubeLambda2(5) != 2 {
		t.Fatal("hypercube λ₂ must be 2")
	}
	if CompleteBipartiteLambda2(5, 3) != 3 {
		t.Fatal("K(5,3) λ₂ must be 3")
	}
	if PetersenLambda2() != 2 {
		t.Fatal("petersen λ₂ must be 2")
	}
}

func TestTorusAndGridLambda2UseLongerSide(t *testing.T) {
	if TorusLambda2(3, 9) != CycleLambda2(9) {
		t.Fatal("torus λ₂ must come from the longer cycle")
	}
	if GridLambda2(8, 3) != PathLambda2(8) {
		t.Fatal("grid λ₂ must come from the longer path")
	}
}

func TestSpectrumLengthsAndOrder(t *testing.T) {
	for _, n := range []int{2, 5, 9} {
		s := PathSpectrum(n)
		if len(s) != n {
			t.Fatalf("path spectrum length %d", len(s))
		}
		if s[0] != 0 {
			t.Fatal("smallest Laplacian eigenvalue must be 0")
		}
		for i := 1; i < n; i++ {
			if s[i] < s[i-1] {
				t.Fatal("path spectrum not ascending")
			}
		}
	}
	cs := CycleSpectrum(8)
	if cs[0] != 0 {
		t.Fatal("cycle spectrum must start at 0")
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] < cs[i-1] {
			t.Fatal("cycle spectrum not ascending")
		}
	}
	hs := HypercubeSpectrum(3)
	if len(hs) != 8 {
		t.Fatalf("Q3 spectrum length %d", len(hs))
	}
	want := []float64{0, 2, 2, 2, 4, 4, 4, 6}
	for i := range want {
		if hs[i] != want[i] {
			t.Fatalf("Q3 spectrum %v, want %v", hs, want)
		}
	}
}

func TestKnownLambda2Matching(t *testing.T) {
	cases := []struct {
		g    *G
		want float64
	}{
		{Path(12), PathLambda2(12)},
		{Cycle(9), CycleLambda2(9)},
		{Complete(4), 4},
		{Star(8), 1},
		{Hypercube(3), 2},
		{Torus(4, 6), TorusLambda2(4, 6)},
		{Grid(5, 5), GridLambda2(5, 5)},
		{CompleteBipartite(2, 7), 2},
		{Petersen(), 2},
	}
	for _, c := range cases {
		cf, ok := c.g.ClosedForm()
		if !ok {
			t.Fatalf("%s: no closed form recorded", c.g.Name())
		}
		if math.Abs(cf.Lambda2-c.want) > 1e-12 {
			t.Fatalf("%s: %v want %v", c.g.Name(), cf.Lambda2, c.want)
		}
	}
}

// TestKnownLambda2Unknown: only the family constructors record a closed
// form. Other families, and graphs from NewBuilder or Subgraph, carry none
// even when their name and edge count match a family's.
func TestKnownLambda2Unknown(t *testing.T) {
	c4 := NewBuilder("cycle(4)", 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		c4.AddEdge(e[0], e[1])
	}
	for _, g := range []*G{
		Barbell(3),
		BinaryTree(3),
		c4.MustFinish(),
		Cycle(4).Subgraph("cycle(4)", []bool{true, true, true, true}),
		Path(0), Complete(0), Star(0), Grid(0, 3), CompleteBipartite(0, 3),
	} {
		if _, ok := g.ClosedForm(); ok {
			t.Fatalf("%s (n=%d m=%d) must have no closed form", g.Name(), g.N(), g.M())
		}
	}
}
