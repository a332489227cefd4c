package speccache_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/speccache"
	"repro/internal/spectral"
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
	s := c.Stats()
	if s.Computes != 1 {
		t.Fatalf("λ₂ computed %d times, want exactly 1", s.Computes)
	}
	if s.Hits != callers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, callers-1)
	}
}

// TestValuesMatchSpectralExactly: the cache must be a pure memoization —
// cached values bit-equal to direct spectral calls. (γ_P is not cached;
// spectral's TestRecordBitsPinned pins its bits.)
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
	}
	if s := c.Stats(); s.Computes != 4 || s.Hits != 4 {
		t.Fatalf("stats %+v, want 4 Laplacian records, each hit once by Gamma", s)
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
	if s := c.Stats(); s.Computes != 2 {
		t.Fatalf("computed %d λ₂ values, want 2 distinct entries", s.Computes)
	}
}

// TestResetClearsEverything: after Reset the next lookup recomputes.
func TestResetClearsEverything(t *testing.T) {
	c := speccache.New()
	g := graph.Cycle(12)
	c.MustLambda2(g)
	c.Reset()
	if s := c.Stats(); s.Computes != 0 || s.Hits != 0 {
		t.Fatalf("stats survived Reset: %+v", s)
	}
	c.MustLambda2(g)
	if s := c.Stats(); s.Computes != 1 {
		t.Fatalf("post-Reset lookup did not recompute: %+v", s)
	}
}

// TestStatsString renders the record traffic as one part.
func TestStatsString(t *testing.T) {
	c := speccache.New()
	g := graph.Cycle(8)
	c.MustLambda2(g)
	c.MustLambda2(g)
	if got, want := c.Stats().String(), "λ₂/λ_max 1 computed/1 hits"; got != want {
		t.Fatalf("Stats().String() = %q, want %q", got, want)
	}
}
