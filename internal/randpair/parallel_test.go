package randpair

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// The parallel Step path replays the serial loop's exact floating-point
// operation chain: transfers are computed from the round-start vector and
// each node accumulates its incident transfers in global link order, so
// the results must match the serial in-place loop bit for bit — including
// the heavier-endpoint sign convention and zero-magnitude transfers.

func TestContinuousParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{2, 3, 17, 64, 101} {
		for _, w := range []int{2, 3, 7, 16} {
			init := workload.Continuous(workload.Spike, n, 1e6*float64(n), nil)
			serial := New(init, rand.New(rand.NewSource(9)))
			par := New(init, rand.New(rand.NewSource(9)))
			par.Workers = w
			for r := 0; r < 60; r++ {
				serial.Step()
				par.Step()
				sv, pv := serial.Values(), par.Values()
				for i := range sv {
					if math.Float64bits(sv[i]) != math.Float64bits(pv[i]) {
						t.Fatalf("n=%d workers=%d round %d node %d: %v != %v", n, w, r, i, pv[i], sv[i])
					}
				}
			}
		}
	}
}

func TestDiscreteParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{2, 3, 17, 64, 101} {
		for _, w := range []int{2, 3, 7, 16} {
			init := workload.Discrete(workload.Spike, n, int64(n)*1_000_000, nil)
			serial := New(init, rand.New(rand.NewSource(9)))
			par := New(init, rand.New(rand.NewSource(9)))
			par.Workers = w
			for r := 0; r < 60; r++ {
				serial.Step()
				par.Step()
				st, pt := serial.Values(), par.Values()
				for i := range st {
					if st[i] != pt[i] {
						t.Fatalf("n=%d workers=%d round %d node %d: %d != %d", n, w, r, i, pt[i], st[i])
					}
				}
			}
		}
	}
}
