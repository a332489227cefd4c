package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestTorus3D(t *testing.T) {
	g := Torus3D(3, 4, 5)
	if g.N() != 60 {
		t.Fatalf("n=%d", g.N())
	}
	if lo, hi := degreeRange(g); lo != 6 || hi != 6 {
		t.Fatalf("3-D torus must be 6-regular, got degrees %d..%d", lo, hi)
	}
	if g.M() != 3*60/2*2 { // 3 edges added per node, each counted once: m = 3n
		t.Fatalf("m=%d, want %d", g.M(), 3*60)
	}
	if !g.IsConnected() {
		t.Fatal("must be connected")
	}
}

func TestTorus3DLambda2MatchesDense(t *testing.T) {
	// Verify the closed form against the generic eigensolver via the
	// Laplacian spectrum of a small instance.
	g := Torus3D(3, 3, 4)
	want := CycleLambda2(4) // the longest dimension's cycle sets λ₂
	// Dense solve through the public Laplacian (keep this package free of
	// a spectral import by checking the Rayleigh quotient of the known
	// eigenvector instead: the slowest mode lives on the longest cycle).
	// x[(i,j,k)] = cos(2π·k/4) is an eigenvector with eigenvalue
	// 2(1 − cos(2π/4)).
	n := g.N()
	x := make([]float64, n)
	id := func(a, b, c int) int { return (a*3+b)*4 + c }
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				x[id(a, b, c)] = math.Cos(2 * math.Pi * float64(c) / 4)
			}
		}
	}
	// Check L·x = want·x.
	for i := 0; i < n; i++ {
		lx := float64(g.Degree(i)) * x[i]
		for _, j := range g.Neighbors(i) {
			lx -= x[j]
		}
		if math.Abs(lx-want*x[i]) > 1e-9 {
			t.Fatalf("L·x != λ₂·x at node %d: %v vs %v", i, lx, want*x[i])
		}
	}
}

func TestTorus3DPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Torus3D(2, 3, 3)
}

func TestCubeConnectedCycles(t *testing.T) {
	g := CubeConnectedCycles(3)
	if g.N() != 24 {
		t.Fatalf("n=%d, want 24", g.N())
	}
	if lo, hi := degreeRange(g); lo != 3 || hi != 3 {
		t.Fatalf("CCC must be 3-regular, got degrees %d..%d", lo, hi)
	}
	if !g.IsConnected() {
		t.Fatal("CCC must be connected")
	}
	// m = 3n/2 for a 3-regular graph.
	if g.M() != 36 {
		t.Fatalf("m=%d, want 36", g.M())
	}
}

func TestButterfly(t *testing.T) {
	g := Butterfly(3)
	if g.N() != 24 {
		t.Fatalf("n=%d, want 24", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("butterfly must be connected")
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("max degree %d, want 4", g.MaxDegree())
	}
}

func TestSmallWorldNoRewire(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := SmallWorld(20, 2, 0, rng)
	// p=0: the ring lattice with 2 chords per node: 2-regular per chord
	// class → 4-regular, m = 2n.
	if lo, hi := degreeRange(g); lo != 4 || hi != 4 {
		t.Fatalf("lattice must be 4-regular, got degrees %d..%d", lo, hi)
	}
	if g.M() != 40 {
		t.Fatalf("m=%d", g.M())
	}
}

func TestSmallWorldRewireKeepsSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := SmallWorld(50, 3, 0.3, rng)
	if g.N() != 50 {
		t.Fatal("node count")
	}
	// Builder would have rejected self loops/duplicates; check edge count
	// stayed within the lattice budget.
	if g.M() > 150 {
		t.Fatalf("m=%d exceeds lattice budget", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("rewired small world should stay connected at p=0.3, k=3")
	}
}

func TestSmallWorldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SmallWorld(4, 1, 0.1, rand.New(rand.NewSource(1)))
}

func TestRandomGeometricExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := RandomGeometric(30, 0, rng); g.M() != 0 {
		t.Fatal("r=0 must have no edges")
	}
	if g := RandomGeometric(30, 2, rng); g.M() != 30*29/2 {
		t.Fatal("r≥√2 must be complete")
	}
}

func TestRandomGeometricConnectsAboveThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	r := 2 * ConnectivityRadius(n)
	connected := 0
	for trial := 0; trial < 5; trial++ {
		if RandomGeometric(n, r, rng).IsConnected() {
			connected++
		}
	}
	if connected < 4 {
		t.Fatalf("only %d/5 RGGs connected at 2× threshold radius", connected)
	}
}

func TestConnectivityRadiusShrinks(t *testing.T) {
	if ConnectivityRadius(100) <= ConnectivityRadius(10000) {
		t.Fatal("radius must shrink with n")
	}
	if ConnectivityRadius(1) != 1 {
		t.Fatal("degenerate convention")
	}
}
