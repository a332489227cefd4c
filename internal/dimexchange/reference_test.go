package dimexchange

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// The reference kernels below are the per-type dimension-exchange steppers
// as they were before Stepper[T] merged them: a matching allocated per
// round, then either the serial in-place pair loop or the partner-array
// node loop, written out once for float64 averages and once for ⌊diff/2⌋
// token moves. They are oracles only.

// refRandomMatching is the allocating random-matching draw.
func refRandomMatching(g *graph.G, rng *rand.Rand) []graph.Edge {
	n := g.N()
	proposal := make([]int, n)
	off, tgt := g.CSR()
	for i := 0; i < n; i++ {
		deg := off[i+1] - off[i]
		if deg == 0 {
			proposal[i] = -1
			continue
		}
		proposal[i] = int(tgt[off[i]+rng.Intn(deg)])
	}
	matched := make([]bool, n)
	var m []graph.Edge
	for i := 0; i < n; i++ {
		j := proposal[i]
		if j < 0 || j < i {
			continue
		}
		if proposal[j] == i && !matched[i] && !matched[j] {
			matched[i], matched[j] = true, true
			m = append(m, graph.Edge{U: i, V: j})
		}
	}
	return m
}

// refPartners is each node's mate in m, −1 when unmatched.
func refPartners(n int, m []graph.Edge) []int {
	partner := make([]int, n)
	for i := range partner {
		partner[i] = -1
	}
	for _, e := range m {
		partner[e.U], partner[e.V] = e.V, e.U
	}
	return partner
}

// refAverage balances every pair of m to the exact average: in place
// (serial) or through the partner array into a fresh vector (parallel).
func refAverage(v []float64, m []graph.Edge, partnerForm bool) {
	if !partnerForm {
		for _, e := range m {
			avg := (v[e.U] + v[e.V]) / 2
			v[e.U], v[e.V] = avg, avg
		}
		return
	}
	partner := refPartners(len(v), m)
	next := make([]float64, len(v))
	for i := range v {
		if j := partner[i]; j >= 0 {
			next[i] = (v[i] + v[j]) / 2
		} else {
			next[i] = v[i]
		}
	}
	copy(v, next)
}

// refTokens moves ⌊|ℓᵢ−ℓⱼ|/2⌋ tokens downhill across every pair of m, in
// the serial or the partner-array form.
func refTokens(v []int64, m []graph.Edge, partnerForm bool) {
	if !partnerForm {
		for _, e := range m {
			hi, lo := e.U, e.V
			if v[hi] < v[lo] {
				hi, lo = lo, hi
			}
			t := (v[hi] - v[lo]) / 2
			v[hi] -= t
			v[lo] += t
		}
		return
	}
	partner := refPartners(len(v), m)
	next := make([]int64, len(v))
	for i, li := range v {
		if j := partner[i]; j >= 0 {
			if lj := v[j]; li > lj {
				li -= (li - lj) / 2
			} else if lj > li {
				li += (lj - li) / 2
			}
		}
		next[i] = li
	}
	copy(v, next)
}

// refSchedule replays the matching source of the pre-merge steppers: a
// fresh random matching per round, or the greedy edge-colouring classes in
// cyclic order.
type refSchedule struct {
	g       *graph.G
	rng     *rand.Rand
	classes [][]graph.Edge
	round   int
}

func (r *refSchedule) next() []graph.Edge {
	if r.rng != nil {
		return refRandomMatching(r.g, r.rng)
	}
	if len(r.classes) == 0 {
		return nil
	}
	m := r.classes[r.round%len(r.classes)]
	r.round++
	return m
}

func newRefSchedule(g *graph.G, random bool, seed int64) *refSchedule {
	if random {
		return &refSchedule{g: g, rng: rand.New(rand.NewSource(seed))}
	}
	colors, num := graph.EdgeColoring(g)
	return &refSchedule{g: g, classes: graph.ColorClasses(g, colors, num)}
}

// TestRoundMatchesReference pins Stepper[T] to the pre-merge kernels for
// 200 rounds: both matching sources, both load types, serial and
// partner-array paths, Float64bits and token equality every round. The
// random source is seeded identically on both sides, so the comparison
// also pins the rng.Intn draw sequence of the scratch-reusing matching.
func TestRoundMatchesReference(t *testing.T) {
	const rounds = 200
	for _, g := range []*graph.G{graph.Hypercube(6), graph.Torus(8, 8), graph.Star(33), graph.DeBruijn(6)} {
		n := g.N()
		rng := rand.New(rand.NewSource(7))
		starts := []struct {
			name   string
			loads  []float64
			tokens []int64
		}{
			{"spike", workload.Continuous(workload.Spike, n, 1e6*float64(n), nil), workload.Discrete(workload.Spike, n, 1e6*int64(n), nil)},
			{"uniform", workload.Continuous(workload.Uniform, n, 1e6, rng), workload.Discrete(workload.Uniform, n, 1e6*int64(n), rng)},
		}
		for _, start := range starts {
			for _, random := range []bool{true, false} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/random=%v/w%d", g.Name(), start.name, random, workers)
					t.Run(name, func(t *testing.T) {
						c, d := newSourceStepper(g, start.loads, random, 11), newSourceStepper(g, start.tokens, random, 11)
						c.Workers, d.Workers = workers, workers
						cs, ds := newRefSchedule(g, random, 11), newRefSchedule(g, random, 11)
						want, wantTok := append([]float64(nil), start.loads...), append([]int64(nil), start.tokens...)
						for r := 1; r <= rounds; r++ {
							c.Step()
							d.Step()
							refAverage(want, cs.next(), workers > 1)
							refTokens(wantTok, ds.next(), workers > 1)
							checkMatchesReference(t, r, c.Values(), want, d.Values(), wantTok)
						}
					})
				}
			}
		}
	}
}

// newSourceStepper builds the random-matching or the round-robin stepper.
func newSourceStepper[T float64 | int64](g *graph.G, initial []T, random bool, seed int64) *Stepper[T] {
	if random {
		return New(g, initial, rand.New(rand.NewSource(seed)))
	}
	return NewRoundRobin(g, initial)
}

// checkMatchesReference compares live state with the oracle's, node by
// node: Float64bits for loads, so a flipped zero sign shows, and exact
// equality for tokens.
func checkMatchesReference(t *testing.T, round int, got, want []float64, gotTok, wantTok []int64) {
	t.Helper()
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("continuous round %d node %d: %v (%#x), reference %v (%#x)",
				round, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
		}
	}
	for i, v := range gotTok {
		if v != wantTok[i] {
			t.Fatalf("discrete round %d node %d: %d tokens, reference %d", round, i, v, wantTok[i])
		}
	}
}

// FuzzRoundMatchesReference fuzzes one Stepper[T] round against the
// pre-merge kernels on Star(6) and Torus(3,3): random matching (fuzzed
// seed) and round robin, serial and partner-array form. Each 8-byte word
// of data is one node's state, read as float64 bits for the continuous
// round and as an int64 token count for the discrete one (missing words
// are zero). Load vectors holding a NaN skip the continuous check: the
// compiler may commute a + b, which changes which NaN payload survives,
// and no stepper is ever given a NaN load.
func FuzzRoundMatchesReference(f *testing.F) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	f.Add(int64(1), words(math.Float64bits(1e6)))                              // spike over zeros
	f.Add(int64(2), words(math.Float64bits(math.Copysign(0, -1)), 0, 0, 0, 0)) // −0 among +0
	f.Add(int64(3), words(math.Float64bits(3.5), math.Float64bits(-2.25), math.Float64bits(1e-310),
		math.Float64bits(5e-324), math.Float64bits(math.Inf(1)), math.Float64bits(7), 1, 1<<63, 42)) // subnormals
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		for _, g := range []*graph.G{graph.Star(6), graph.Torus(3, 3)} {
			loads, tokens := make([]float64, g.N()), make([]int64, g.N())
			hasNaN := false
			for i := range loads {
				var w uint64
				if len(data) >= 8*(i+1) {
					w = binary.LittleEndian.Uint64(data[8*i:])
				}
				loads[i], tokens[i] = math.Float64frombits(w), int64(w)
				hasNaN = hasNaN || math.IsNaN(loads[i])
			}
			for _, random := range []bool{true, false} {
				for _, workers := range []int{1, 3} {
					c, d := newSourceStepper(g, loads, random, seed), newSourceStepper(g, tokens, random, seed)
					c.Workers, d.Workers = workers, workers
					c.Step()
					d.Step()
					want, wantTok := append([]float64(nil), loads...), append([]int64(nil), tokens...)
					refAverage(want, newRefSchedule(g, random, seed).next(), workers > 1)
					refTokens(wantTok, newRefSchedule(g, random, seed).next(), workers > 1)
					got := c.Values()
					if hasNaN {
						got = nil
					}
					checkMatchesReference(t, 1, got, want, d.Values(), wantTok)
				}
			}
		}
	})
}
