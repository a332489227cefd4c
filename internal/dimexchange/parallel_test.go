package dimexchange

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// The parallel Step paths must reproduce the serial ones bit for bit: a
// matching touches every node at most once, so fanning the partner-array
// averaging over goroutines performs exactly the same IEEE operations per
// node as the serial in-place loop — any discrepancy is a bug, not noise.

func spikeFloats(n int) []float64 {
	return workload.Continuous(workload.Spike, n, 1e6*float64(n), nil)
}

func spikeTokens(n int) []int64 {
	return workload.Discrete(workload.Spike, n, int64(n)*1_000_000, nil)
}

func TestContinuousParallelMatchesSerial(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(17), graph.Torus(5, 6), graph.Hypercube(5)} {
		for _, w := range []int{2, 3, 7, 16} {
			serial := New(g, spikeFloats(g.N()), rand.New(rand.NewSource(5)))
			par := New(g, spikeFloats(g.N()), rand.New(rand.NewSource(5)))
			par.Workers = w
			for r := 0; r < 40; r++ {
				serial.Step()
				par.Step()
				for i := range serial.Values() {
					if math.Float64bits(serial.Values()[i]) != math.Float64bits(par.Values()[i]) {
						t.Fatalf("%s workers=%d round %d node %d: %v != %v",
							g.Name(), w, r, i, par.Values()[i], serial.Values()[i])
					}
				}
			}
		}
	}
}

func TestDiscreteParallelMatchesSerial(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(17), graph.Torus(5, 6), graph.Hypercube(5)} {
		for _, w := range []int{2, 3, 7, 16} {
			serial := New(g, spikeTokens(g.N()), rand.New(rand.NewSource(5)))
			par := New(g, spikeTokens(g.N()), rand.New(rand.NewSource(5)))
			par.Workers = w
			for r := 0; r < 40; r++ {
				serial.Step()
				par.Step()
				for i := range serial.Values() {
					if serial.Values()[i] != par.Values()[i] {
						t.Fatalf("%s workers=%d round %d node %d: %d != %d",
							g.Name(), w, r, i, par.Values()[i], serial.Values()[i])
					}
				}
			}
		}
	}
}

func TestRoundRobinParallelMatchesSerial(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(12), graph.Torus(4, 5), graph.Hypercube(4)} {
		for _, w := range []int{2, 7} {
			serial := NewRoundRobin(g, spikeFloats(g.N()))
			par := NewRoundRobin(g, spikeFloats(g.N()))
			par.Workers = w
			for r := 0; r < 3*len(serial.Classes); r++ {
				serial.Step()
				par.Step()
				for i := range serial.Values() {
					if math.Float64bits(serial.Values()[i]) != math.Float64bits(par.Values()[i]) {
						t.Fatalf("%s workers=%d round %d node %d: %v != %v",
							g.Name(), w, r, i, par.Values()[i], serial.Values()[i])
					}
				}
			}
		}
	}
}

func TestRoundRobinDiscreteParallelMatchesSerial(t *testing.T) {
	for _, g := range []*graph.G{graph.Cycle(12), graph.Torus(4, 5), graph.Hypercube(4)} {
		for _, w := range []int{2, 7} {
			serial := NewRoundRobin(g, spikeTokens(g.N()))
			par := NewRoundRobin(g, spikeTokens(g.N()))
			par.Workers = w
			for r := 0; r < 3*len(serial.Classes); r++ {
				serial.Step()
				par.Step()
				for i := range serial.Values() {
					if serial.Values()[i] != par.Values()[i] {
						t.Fatalf("%s workers=%d round %d node %d: %d != %d",
							g.Name(), w, r, i, par.Values()[i], serial.Values()[i])
					}
				}
			}
		}
	}
}
