package hetero

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// The reference kernels below are the per-type heterogeneous steppers as
// they were before Stepper[T] merged them: Continuous subtracting the
// signed float transfer, Discrete subtracting its floor toward zero. Step
// and transfer are copied verbatim; they are oracles only.

type refContinuous struct {
	G      *graph.G
	Load   []float64
	Speeds []float64

	next []float64
}

func (h *refContinuous) EdgeTransfer(i, j int, li, lj float64) float64 {
	ci, cj := h.Speeds[i], h.Speeds[j]
	diff := li/ci - lj/cj
	if diff == 0 {
		return 0
	}
	cmin := ci
	if cj < cmin {
		cmin = cj
	}
	di, dj := h.G.Degree(i), h.G.Degree(j)
	if dj > di {
		di = dj
	}
	return diff * cmin / (4 * float64(di))
}

func (h *refContinuous) Step() {
	g, cur := h.G, h.Load
	n := g.N()
	if h.next == nil {
		h.next = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		acc := cur[i]
		for _, j := range g.Neighbors(i) {
			acc -= h.EdgeTransfer(i, int(j), cur[i], cur[j])
		}
		h.next[i] = acc
	}
	copy(cur, h.next)
}

type refDiscrete struct {
	G      *graph.G
	Load   []int64
	Speeds []float64

	next []int64
}

func (h *refDiscrete) Step() {
	g, cur := h.G, h.Load
	n := g.N()
	if h.next == nil {
		h.next = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		acc := cur[i]
		for _, j := range g.Neighbors(i) {
			acc -= h.transfer(i, int(j), cur[i], cur[j])
		}
		h.next[i] = acc
	}
	copy(cur, h.next)
}

func (h *refDiscrete) transfer(i, j int, li, lj int64) int64 {
	ci, cj := h.Speeds[i], h.Speeds[j]
	diff := float64(li)/ci - float64(lj)/cj
	if diff == 0 {
		return 0
	}
	cmin := ci
	if cj < cmin {
		cmin = cj
	}
	di, dj := h.G.Degree(i), h.G.Degree(j)
	if dj > di {
		di = dj
	}
	w := diff * cmin / (4 * float64(di))
	if w > 0 {
		return int64(math.Floor(w))
	}
	return -int64(math.Floor(-w))
}

func (h *refDiscrete) FixedPoint() bool {
	cur := h.Load
	for _, e := range h.G.Edges() {
		if h.transfer(e.U, e.V, cur[e.U], cur[e.V]) != 0 {
			return false
		}
	}
	return true
}

// TestRoundMatchesReference pins Stepper[float64] and Stepper[int64] to
// the retired kernels for 300 rounds on a torus, a hypercube and a random
// 4-regular graph, Float64bits and token equality every round. Speeds are
// uniform (the Algorithm 1 case) or mixed: a 1/4 skew, where the min(cᵢ, cⱼ)
// factor and the normalized difference both matter, and random speeds in
// [0.5, 3.5) that make every transfer a non-trivial float. The token leg
// also checks fixedPoint against the retired detector each round.
func TestRoundMatchesReference(t *testing.T) {
	const rounds = 300
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.G{graph.Torus(8, 8), graph.Hypercube(6), graph.RandomRegular(64, 4, rng)} {
		n := g.N()
		skew, random := make([]float64, n), make([]float64, n)
		for i := range skew {
			skew[i] = 1 + 3*float64(i%2)
			random[i] = 0.5 + 3*rng.Float64()
		}
		speedSets := []struct {
			name   string
			speeds []float64
		}{{"uniform", uniformSpeeds(n)}, {"skew", skew}, {"random", random}}
		starts := []struct {
			name   string
			loads  []float64
			tokens []int64
		}{
			{"spike", workload.Continuous(workload.Spike, n, 1e6*float64(n), nil), workload.Discrete(workload.Spike, n, 1e6*int64(n), nil)},
			{"uniform", workload.Continuous(workload.Uniform, n, 1e6, rng), workload.Discrete(workload.Uniform, n, 1e6*int64(n), rng)},
		}
		for _, sp := range speedSets {
			for _, start := range starts {
				t.Run(fmt.Sprintf("%s/%s/%s", g.Name(), sp.name, start.name), func(t *testing.T) {
					c, err := New(g, start.loads, sp.speeds)
					if err != nil {
						t.Fatal(err)
					}
					d, err := New(g, start.tokens, sp.speeds)
					if err != nil {
						t.Fatal(err)
					}
					rc := &refContinuous{G: g, Load: append([]float64(nil), start.loads...), Speeds: sp.speeds}
					rd := &refDiscrete{G: g, Load: append([]int64(nil), start.tokens...), Speeds: sp.speeds}
					for r := 1; r <= rounds; r++ {
						c.Step()
						d.Step()
						rc.Step()
						rd.Step()
						for i, v := range c.Values() {
							if math.Float64bits(v) != math.Float64bits(rc.Load[i]) {
								t.Fatalf("continuous round %d node %d: %v, reference %v", r, i, v, rc.Load[i])
							}
						}
						for i, v := range d.Values() {
							if v != rd.Load[i] {
								t.Fatalf("discrete round %d node %d: %d tokens, reference %d", r, i, v, rd.Load[i])
							}
						}
						if got, want := fixedPoint(d), rd.FixedPoint(); got != want {
							t.Fatalf("round %d: fixedPoint = %v, reference %v", r, got, want)
						}
					}
				})
			}
		}
	}
}

// TestZeroAllocsPerRound: a round allocates nothing once the double
// buffer exists, for both load types.
func TestZeroAllocsPerRound(t *testing.T) {
	g := graph.Hypercube(8)
	speeds := make([]float64, g.N())
	for i := range speeds {
		speeds[i] = 1 + float64(i%3)
	}
	c, err := New(g, workload.Continuous(workload.Spike, g.N(), 1e6, nil), speeds)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, workload.Discrete(workload.Spike, g.N(), 1e6*int64(g.N()), nil), speeds)
	if err != nil {
		t.Fatal(err)
	}
	for name, step := range map[string]func(){"float64": c.Step, "int64": d.Step} {
		step()
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("Stepper[%s].Step allocates %v times per round, want 0", name, avg)
		}
	}
}
