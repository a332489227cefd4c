package diffusion

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// refFirstOrderTokens is the discrete first-order scheme of [15] as it
// was before FirstOrder[T] absorbed it: its own type over token counts,
// with an abs-and-floor transfer and a per-Step closure. Step is copied
// verbatim; the type is an oracle only.
type refFirstOrderTokens struct {
	G       *graph.G
	Load    []int64
	Alpha   float64
	Workers int

	next []int64
}

func (d *refFirstOrderTokens) Step() {
	g, cur := d.G, d.Load
	n := g.N()
	if d.next == nil {
		d.next = make([]int64, n)
	}
	alpha := d.Alpha
	off, tgt := g.CSR()
	parallel.For(n, parallel.StepperWorkers(d.Workers), func(i int) {
		li := cur[i]
		acc := li
		for _, j := range tgt[off[i]:off[i+1]] {
			lj := cur[j]
			if li == lj {
				continue
			}
			diff := li - lj
			abs := diff
			if abs < 0 {
				abs = -abs
			}
			w := int64(math.Floor(alpha * float64(abs)))
			if w == 0 {
				continue
			}
			if diff > 0 {
				acc -= w
			} else {
				acc += w
			}
		}
		d.next[i] = acc
	})
	copy(cur, d.next)
}

// refFirstOrderRound is the float64-only first-order round body before
// FirstOrder[T]: acc += α·(ℓⱼ − ℓᵢ) per CSR neighbour.
func refFirstOrderRound(g *graph.G, cur []float64, alpha float64) []float64 {
	off, tgt := g.CSR()
	next := make([]float64, len(cur))
	for i, li := range cur {
		acc := li
		for _, j := range tgt[off[i]:off[i+1]] {
			acc += alpha * (cur[j] - li)
		}
		next[i] = acc
	}
	return next
}

// TestFirstOrderMatchesReference pins FirstOrder[int64] to the retired
// discrete kernel and FirstOrder[float64] to the retired continuous body,
// for 200 rounds, serial and round-parallel, token equality and
// Float64bits every round. The regular torus and hypercube and a random
// 4-regular graph start from a spike (long runs of equal neighbours) and
// from uniform noise (both transfer signs on every row). The float64 leg
// runs on amd64 only: elsewhere the oracle's α·(ℓⱼ − ℓᵢ) + acc may be
// fused into an FMA, which the stepper's conversion to T forbids.
func TestFirstOrderMatchesReference(t *testing.T) {
	const rounds = 200
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.G{graph.Torus(8, 8), graph.Hypercube(6), graph.RandomRegular(64, 4, rng)} {
		n := g.N()
		starts := []struct {
			name   string
			loads  []float64
			tokens []int64
		}{
			{"spike", workload.Continuous(workload.Spike, n, 1e6*float64(n), nil), workload.Discrete(workload.Spike, n, 1e6*int64(n), nil)},
			{"uniform", workload.Continuous(workload.Uniform, n, 1e6, rng), workload.Discrete(workload.Uniform, n, 1e6*int64(n), rng)},
		}
		for _, start := range starts {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/w%d", g.Name(), start.name, workers), func(t *testing.T) {
					c, d := NewFirstOrder(g, start.loads), NewFirstOrder(g, start.tokens)
					c.Workers, d.Workers = workers, workers
					ref := &refFirstOrderTokens{G: g, Load: append([]int64(nil), start.tokens...), Alpha: d.Alpha, Workers: workers}
					want := start.loads
					for r := 1; r <= rounds; r++ {
						d.Step()
						ref.Step()
						for i, v := range d.Values() {
							if v != ref.Load[i] {
								t.Fatalf("discrete round %d node %d: %d tokens, reference %d", r, i, v, ref.Load[i])
							}
						}
						if runtime.GOARCH != "amd64" {
							continue
						}
						c.Step()
						want = refFirstOrderRound(g, want, c.Alpha)
						for i, v := range c.Values() {
							if math.Float64bits(v) != math.Float64bits(want[i]) {
								t.Fatalf("continuous round %d node %d: %v, reference %v", r, i, v, want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestFirstOrderFixedPointMatchesReference: FixedPoint agrees with the
// retired detector, ⌊α·|ℓᵤ − ℓᵥ|⌋ = 0 on every edge, along a run to the
// fixed point.
func TestFirstOrderFixedPointMatchesReference(t *testing.T) {
	g := graph.Hypercube(4)
	st := NewFirstOrder(g, workload.Discrete(workload.Spike, g.N(), 1_000_000, nil))
	refFixed := func(cur []int64) bool {
		for _, e := range g.Edges() {
			diff := cur[e.U] - cur[e.V]
			if diff < 0 {
				diff = -diff
			}
			if int64(math.Floor(st.Alpha*float64(diff))) != 0 {
				return false
			}
		}
		return true
	}
	for k := 0; ; k++ {
		got, want := st.FixedPoint(), refFixed(st.Values())
		if got != want {
			t.Fatalf("round %d: FixedPoint = %v, reference %v", k, got, want)
		}
		if got {
			break
		}
		if k == 100000 {
			t.Fatal("no fixed point within 100000 rounds")
		}
		st.Step()
	}
}

// TestFirstOrderZeroAllocsPerRound: a serial token round allocates nothing
// once the round body is built.
func TestFirstOrderZeroAllocsPerRound(t *testing.T) {
	g := graph.Hypercube(8)
	st := NewFirstOrder(g, workload.Discrete(workload.Spike, g.N(), 1e6*int64(g.N()), nil))
	st.Step()
	if avg := testing.AllocsPerRun(100, st.Step); avg != 0 {
		t.Fatalf("FirstOrder[int64].Step allocates %v times per round, want 0", avg)
	}
}
