package speccache_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/workload"
)

// TestLambda2ComputedExactlyOnceUnderConcurrency hammers one key from many
// goroutines: every caller must see the same value and the eigensolve must
// run exactly once.
func TestLambda2ComputedExactlyOnceUnderConcurrency(t *testing.T) {
	c := speccache.New()
	g := graph.Torus(8, 8)
	want := spectral.MustLambda2(g)

	const callers = 32
	got := make([]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.MustLambda2(g)
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != want {
			t.Fatalf("caller %d got %v, want %v", i, v, want)
		}
	}
	s := c.Stats().Laplacian
	if s.Computes != 1 {
		t.Fatalf("λ₂ computed %d times, want exactly 1", s.Computes)
	}
	if s.Hits != callers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, callers-1)
	}
}

// TestValuesMatchSpectralExactly: the cache must be a pure memoization —
// cached values bit-equal to direct spectral calls. The grid's paper
// weights mix, so its γ_P takes the memoized solve; the others derive it.
func TestValuesMatchSpectralExactly(t *testing.T) {
	c := speccache.New()
	for _, g := range []*graph.G{graph.Cycle(24), graph.Hypercube(4), graph.Star(16), graph.Grid(4, 5)} {
		if got, want := c.MustLambda2(g), spectral.MustLambda2(g); got != want {
			t.Fatalf("%s: λ₂ %v != %v", g.Name(), got, want)
		}
		gm, err := c.Gamma(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := spectral.GammaOf(g)
		if err != nil {
			t.Fatal(err)
		}
		if gm != want {
			t.Fatalf("%s: γ %v != %v", g.Name(), gm, want)
		}
		gp, err := c.PaperGamma(g)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = spectral.PaperGammaOf(g); err != nil || gp != want {
			t.Fatalf("%s: γ_P %v != %v (%v)", g.Name(), gp, want, err)
		}
	}
	if s := c.Stats(); s.Laplacian.Computes != 4 || s.PaperGamma.Computes != 1 {
		t.Fatalf("stats %+v, want 4 Laplacian records and one γ_P solve", s)
	}
}

// TestSameNameDifferentEdgesDoNotCollide: the fingerprint key must separate
// graphs that share a name but not a structure (randomized families).
func TestSameNameDifferentEdgesDoNotCollide(t *testing.T) {
	c := speccache.New()
	b1 := graph.NewBuilder("twin", 4)
	b1.AddEdge(0, 1)
	b1.AddEdge(1, 2)
	b1.AddEdge(2, 3)
	b1.AddEdge(3, 0) // cycle: λ₂ = 2
	cycle := b1.MustFinish()

	b2 := graph.NewBuilder("twin", 4)
	b2.AddEdge(0, 1)
	b2.AddEdge(0, 2)
	b2.AddEdge(0, 3) // star: λ₂ = 1
	star := b2.MustFinish()

	l1, l2 := c.MustLambda2(cycle), c.MustLambda2(star)
	if math.Abs(l1-2) > 1e-9 || math.Abs(l2-1) > 1e-9 {
		t.Fatalf("same-name graphs shared a cache entry: got %v and %v", l1, l2)
	}
	if s := c.Stats().Laplacian; s.Computes != 2 {
		t.Fatalf("computed %d λ₂ values, want 2 distinct entries", s.Computes)
	}
}

// TestOptimalFlowMemoizedAndCloneSafe: repeated lookups compute once, and
// mutating a returned flow must not poison the cache.
func TestOptimalFlowMemoizedAndCloneSafe(t *testing.T) {
	c := speccache.New()
	g := graph.Cycle(16)
	l := matrix.Vector(workload.Continuous(workload.Spike, g.N(), 1e6, nil))

	f1, err := c.OptimalFlow(g, l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.Optimal(g, l)
	if err != nil {
		t.Fatal(err)
	}
	if f1.L2() != want.L2() || f1.L1() != want.L1() {
		t.Fatalf("cached flow differs from direct computation")
	}

	f1.Values[0] = 1e18 // vandalize the returned copy
	f2, err := c.OptimalFlow(g, l)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Values[0] == 1e18 {
		t.Fatal("mutating a returned flow corrupted the cache")
	}
	if s := c.Stats().OptimalFlow; s.Computes != 1 || s.Hits != 1 {
		t.Fatalf("flow stats = %+v, want 1 compute + 1 hit", s)
	}

	// A different load vector is a different entry.
	l2 := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 1e6, rand.New(rand.NewSource(1))))
	if _, err := c.OptimalFlow(g, l2); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats().OptimalFlow; s.Computes != 2 {
		t.Fatalf("distinct loads reused one entry: %+v", s)
	}
}

// TestResetClearsEverything: after Reset the next lookup recomputes.
func TestResetClearsEverything(t *testing.T) {
	c := speccache.New()
	g := graph.Cycle(12)
	c.MustLambda2(g)
	c.Reset()
	if s := c.Stats().Laplacian; s.Computes != 0 || s.Hits != 0 {
		t.Fatalf("stats survived Reset: %+v", s)
	}
	c.MustLambda2(g)
	if s := c.Stats().Laplacian; s.Computes != 1 {
		t.Fatalf("post-Reset lookup did not recompute: %+v", s)
	}
}

// TestStatsString renders without panicking and mentions every quantity.
func TestStatsString(t *testing.T) {
	c := speccache.New()
	c.MustLambda2(graph.Cycle(8))
	s := c.Stats().String()
	for _, want := range []string{"λ₂", "γ", "optflow"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Stats().String() = %q missing %q", s, want)
		}
	}
}
