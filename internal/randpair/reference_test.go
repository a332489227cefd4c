package randpair

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// The reference kernels below are the per-type Algorithm 2 rounds as they
// were before Stepper[T] merged them: the serial in-place link loop (abs
// of the difference, then a sign branch) and the incidence form the
// parallel path accumulates, written out once for float64 loads and once
// for int64 tokens. They are oracles only; refRound draws the round's
// links itself, so a reference run consumes the same rng stream as a
// stepper seeded alike.

func refRound[T float64 | int64](v []T, rng *rand.Rand, incidenceForm bool) {
	n := len(v)
	links := RoundLinks(n, rng)
	deg := Degrees(n, links)
	start := append([]T(nil), v...)
	switch v := any(v).(type) {
	case []float64:
		start := any(start).([]float64)
		if incidenceForm {
			refIncidenceContinuous(v, start, links, deg)
		} else {
			refSerialContinuous(v, start, links, deg)
		}
	case []int64:
		start := any(start).([]int64)
		if incidenceForm {
			refIncidenceDiscrete(v, start, links, deg)
		} else {
			refSerialDiscrete(v, start, links, deg)
		}
	}
}

func refSerialContinuous(v, start []float64, links []Link, deg []int) {
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 {
			continue
		}
		diff := start[i] - start[j]
		if diff == 0 {
			continue
		}
		w := math.Abs(diff) / (4 * float64(d))
		if diff > 0 {
			v[i] -= w
			v[j] += w
		} else {
			v[j] -= w
			v[i] += w
		}
	}
}

func refSerialDiscrete(v, start []int64, links []Link, deg []int) {
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 {
			continue
		}
		diff := start[i] - start[j]
		if diff == 0 {
			continue
		}
		abs := diff
		if abs < 0 {
			abs = -abs
		}
		t := abs / int64(4*d)
		if t == 0 {
			continue
		}
		if diff > 0 {
			v[i] -= t
			v[j] += t
		} else {
			v[j] -= t
			v[i] += t
		}
	}
}

// refIncidenceContinuous lists each node's signed transfers in global
// link order, then sums them onto the round-start load.
func refIncidenceContinuous(v, start []float64, links []Link, deg []int) {
	ent := make([][]float64, len(v))
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 || start[i] == start[j] {
			continue
		}
		w := math.Abs(start[i]-start[j]) / (4 * float64(d))
		if start[i] > start[j] {
			w = -w
		}
		ent[i] = append(ent[i], w)
		ent[j] = append(ent[j], -w)
	}
	for i := range v {
		acc := start[i]
		for _, w := range ent[i] {
			acc += w
		}
		v[i] = acc
	}
}

func refIncidenceDiscrete(v, start []int64, links []Link, deg []int) {
	ent := make([][]int64, len(v))
	for _, lk := range links {
		i, j := lk.From, lk.To
		d := maxDeg(deg, lk)
		if d == 0 || start[i] == start[j] {
			continue
		}
		diff := start[i] - start[j]
		abs := diff
		if abs < 0 {
			abs = -abs
		}
		t := abs / int64(4*d)
		if diff > 0 {
			t = -t
		}
		ent[i] = append(ent[i], t)
		ent[j] = append(ent[j], -t)
	}
	for i := range v {
		acc := start[i]
		for _, t := range ent[i] {
			acc += t
		}
		v[i] = acc
	}
}

// TestRoundMatchesReference pins Stepper[T] to the pre-merge kernels for
// 200 rounds, Float64bits and token equality every round, serial (one
// worker) and incidence (three workers). Algorithm 2 ignores the edges, so
// the graphs only set n: the hypercube, torus, star and de Bruijn sizes
// of the other kernels' oracle tests. A spike over zeros keeps most links
// between equal loads (the skip); uniform noise exercises both signs.
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
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/w%d", g.Name(), start.name, workers), func(t *testing.T) {
					c := New(start.loads, rand.New(rand.NewSource(11)))
					d := New(start.tokens, rand.New(rand.NewSource(11)))
					c.Workers, d.Workers = workers, workers
					crng, drng := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
					want, wantTok := append([]float64(nil), start.loads...), append([]int64(nil), start.tokens...)
					for r := 1; r <= rounds; r++ {
						c.Step()
						d.Step()
						refRound(want, crng, workers > 1)
						refRound(wantTok, drng, workers > 1)
						checkMatchesReference(t, r, c.Values(), want, d.Values(), wantTok)
					}
				})
			}
		}
	}
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
// pre-merge kernels on 6 and 9 nodes, serial and incidence form, with a
// fuzzed link seed. Each 8-byte word of data is one node's state, read as
// float64 bits for the continuous round and, sign bit cleared, as an int64
// token count for the discrete one (missing words are zero). Token counts
// are never negative (core rejects negative loads), so a difference never
// wraps to math.MinInt64, the one value integer negation maps to itself.
// Load vectors holding a NaN or an infinity skip the continuous check: an
// infinite difference turns into a NaN whose sign bit the two forms may
// set differently, and core rejects both as loads.
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
		math.Float64bits(5e-324), math.Float64bits(7), math.Float64bits(7), 1, 1<<62, 42)) // subnormals
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		for _, n := range []int{6, 9} {
			loads, tokens := make([]float64, n), make([]int64, n)
			finite := true
			for i := range loads {
				var w uint64
				if len(data) >= 8*(i+1) {
					w = binary.LittleEndian.Uint64(data[8*i:])
				}
				loads[i], tokens[i] = math.Float64frombits(w), int64(w&^(1<<63))
				finite = finite && !math.IsNaN(loads[i]) && !math.IsInf(loads[i], 0)
			}
			for _, workers := range []int{1, 3} {
				var got, want []float64
				if finite {
					c := New(loads, rand.New(rand.NewSource(seed)))
					c.Workers = workers
					c.Step()
					got, want = c.Values(), append([]float64(nil), loads...)
					refRound(want, rand.New(rand.NewSource(seed)), workers > 1)
				}
				d := New(tokens, rand.New(rand.NewSource(seed)))
				d.Workers = workers
				d.Step()
				wantTok := append([]int64(nil), tokens...)
				refRound(wantTok, rand.New(rand.NewSource(seed)), workers > 1)
				checkMatchesReference(t, 1, got, want, d.Values(), wantTok)
			}
		}
	})
}
