//go:build !race

package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// churnSession opens an Algorithm 1 session on a random 4-regular graph
// under edge-churn:0.1 and returns it with the round function a churned run
// repeats: SwapGraph to the scenario's graph, Step, Commit.
func churnSession(tb testing.TB, mode Mode, n int) (*Session, func()) {
	g := graph.RandomRegular(n, 4, rand.New(rand.NewSource(1)))
	cfg := Config{
		Graph:     g,
		Algorithm: Diffusion,
		Mode:      mode,
		Loads:     SpikeLoads(g.N(), 1e12),
		Epsilon:   1e-15, // far from reached within the measured rounds
		Scenario:  mustScenario(tb, "edge-churn:0.1"),
	}
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := cfg.Scenario.New(g, 1e12, rand.New(rand.NewSource(2)))
	if err != nil {
		tb.Fatal(err)
	}
	k := 0
	return s, func() {
		if err := s.SwapGraph(inst.Graph(k)); err != nil {
			tb.Fatal(err)
		}
		if err := s.Step(); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			tb.Fatal(err)
		}
		k++
	}
}

// TestChurnRoundAllocs: an Algorithm 1 edge-churn round allocates only
// what the round's new graph needs — its name, the G, its CSR offsets and
// targets, the round body Step builds for it — and Commit's amortized
// trace growth: at most churnRoundAllocs. The subgraph draw reuses its keep
// mask and SwapGraph moves the stepper in place, so neither the loads nor
// the double buffer are copied or reallocated. Built !race: the race
// detector changes allocation counts.
func TestChurnRoundAllocs(t *testing.T) {
	const churnRoundAllocs = 6
	for _, mode := range []Mode{Continuous, Discrete} {
		t.Run(mode.String(), func(t *testing.T) {
			s, round := churnSession(t, mode, 256)
			defer s.Close()
			for range 16 { // the mask, the double buffer and the trace settle
				round()
			}
			if got := testing.AllocsPerRun(200, round); got > churnRoundAllocs {
				t.Fatalf("a %v edge-churn round allocates %v times, want at most %d", mode, got, churnRoundAllocs)
			}
		})
	}
}

// BenchmarkChurnRound times one discrete Algorithm 1 edge-churn round on
// e2ebench churn's graph (random 4-regular, n = 4096): the subgraph draw,
// SwapGraph, Step and Commit.
func BenchmarkChurnRound(b *testing.B) {
	s, round := churnSession(b, Discrete, 4096)
	defer s.Close()
	b.ReportAllocs()
	for b.Loop() {
		round()
	}
}
