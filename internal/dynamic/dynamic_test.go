package dynamic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestStaticSequence(t *testing.T) {
	g := graph.Cycle(8)
	s := Static{G: g}
	if s.N() != 8 || s.Next(0) != g || s.Next(99) != g {
		t.Fatal("static sequence wrong")
	}
}

func TestRandomSubgraphsKeepAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := graph.Torus(4, 4)
	seq := &RandomSubgraphs{Base: base, KeepProb: 1, RNG: rng}
	g := seq.Next(0)
	if g.M() != base.M() {
		t.Fatalf("KeepProb=1 lost edges: %d vs %d", g.M(), base.M())
	}
}

func TestRandomSubgraphsKeepNone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := graph.Cycle(6)
	seq := &RandomSubgraphs{Base: base, KeepProb: 0, RNG: rng}
	if g := seq.Next(0); g.M() != 0 {
		t.Fatal("KeepProb=0 kept edges")
	}
}

// TestRandomSubgraphsDrawStream: each Next consumes exactly Base.M()
// Float64 draws, one per base edge in Edges() order, and keeps the edges
// whose draw is below KeepProb. This fixed stream is what keeps churn
// trajectories byte-identical however Subgraph builds its graph.
func TestRandomSubgraphsDrawStream(t *testing.T) {
	base := graph.RandomRegular(64, 4, rand.New(rand.NewSource(7)))
	seq := &RandomSubgraphs{Base: base, KeepProb: 0.5, RNG: rand.New(rand.NewSource(9))}
	replay := rand.New(rand.NewSource(9))
	for k := 0; k < 5; k++ {
		g := seq.Next(k)
		var want []graph.Edge
		for _, e := range base.Edges() {
			if replay.Float64() < seq.KeepProb {
				want = append(want, e)
			}
		}
		if !slices.Equal(g.Edges(), want) {
			t.Fatalf("round %d: kept %d edges, replay keeps %d", k, g.M(), len(want))
		}
		if got, next := seq.RNG.Int63(), replay.Int63(); got != next {
			t.Fatalf("round %d: RNG out of step with a replay advanced by M() = %d draws", k, base.M())
		}
	}
}

func TestRandomSubgraphsConnectedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := graph.Cycle(8)
	seq := &RandomSubgraphs{Base: base, KeepProb: 0.05, RequireConnected: true, RNG: rng}
	g := seq.Next(0)
	if !g.IsConnected() {
		t.Fatal("RequireConnected violated (fallback should return base)")
	}
}

func TestAlternating(t *testing.T) {
	a, err := NewAlternating(graph.Cycle(8), graph.Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Next(0).Name() != "cycle(8)" || a.Next(1).Name() != "complete(8)" || a.Next(2).Name() != "cycle(8)" {
		t.Fatal("alternation wrong")
	}
}

func TestAlternatingRejectsMismatch(t *testing.T) {
	if _, err := NewAlternating(graph.Cycle(8), graph.Cycle(9)); err == nil {
		t.Fatal("expected node-count mismatch error")
	}
	if _, err := NewAlternating(); err == nil {
		t.Fatal("expected empty-list error")
	}
}

func TestEdgeFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := graph.Complete(8)
	seq := &EdgeFailures{Base: base, FailCount: 5, RNG: rng}
	g := seq.Next(0)
	if g.M() != base.M()-5 {
		t.Fatalf("m=%d, want %d", g.M(), base.M()-5)
	}
	if g.N() != base.N() {
		t.Fatal("node set must be preserved")
	}
}

func TestTheorem8ThresholdSkipsDisconnected(t *testing.T) {
	stats := []RoundStat{
		{Lambda2: 0, Delta: 4},   // disconnected round: ignored
		{Lambda2: 2, Delta: 2},   // contributes 8/2 = 4
		{Lambda2: 0.5, Delta: 1}, // contributes 1/0.5 = 2
	}
	got := Theorem8Threshold(10, stats)
	want := 64.0 * 10 * 4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("threshold %v, want %v", got, want)
	}
}
